// Command manifestcheck asserts a fenrir run manifest is well formed:
// it parses, names every pipeline stage, and its stage durations account
// for at least 90% of the recorded wall time. With -faults it additionally
// asserts the fault-injection counters landed in the manifest: faults were
// injected, and the quarantine counter is present (even when zero). With
// -serve it instead validates a daemon manifest: no batch stages are
// required, but the serve ingest/tenant/checkpoint metrics must have
// landed. With -events it asserts the flight recorder folded structured
// events into the manifest with strictly increasing sequence numbers.
// With -alerts it asserts the telemetry-history alert engine ran (the
// alerts block is present with at least one evaluated rule and one
// sample) and warns loudly about rules still firing at shutdown. Exits
// non-zero with a diagnostic otherwise; used by scripts/obs_smoke.sh,
// scripts/faults_smoke.sh, and scripts/history_smoke.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fenrir/internal/obs"
)

var pipelineStages = []string{"generate", "observe", "similarity", "cluster", "detect", "transitions", "report"}

func main() {
	checkFaults := flag.Bool("faults", false, "assert fault-injection and quarantine counters are present")
	checkServe := flag.Bool("serve", false, "validate a daemon (fenrir -serve) manifest instead of a batch run")
	checkEvents := flag.Bool("events", false, "assert flight-recorder events landed in the manifest")
	checkAlerts := flag.Bool("alerts", false, "assert the telemetry-history alerts block landed in the manifest")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: manifestcheck [-faults] [-serve] [-events] [-alerts] <manifest.json>")
		os.Exit(2)
	}
	m, err := obs.LoadManifest(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	if m.Scenario == "" {
		fail("manifest has no scenario name")
	}
	if *checkEvents {
		checkManifestEvents(m)
	}
	if *checkAlerts {
		checkManifestAlerts(m)
	}
	checkEvictions(m)
	if *checkServe {
		checkServeManifest(m)
		return
	}
	var have []string
	for _, s := range m.Stages {
		have = append(have, s.Name)
	}
	for _, stage := range pipelineStages {
		rec := m.Stage(stage)
		if rec == nil {
			fail("stage %q missing from manifest (have %v)", stage, have)
		}
		if rec.Seconds < 0 {
			fail("stage %q has negative duration %v", stage, rec.Seconds)
		}
	}
	if m.WallSeconds <= 0 {
		fail("wall_seconds = %v", m.WallSeconds)
	}
	sum := m.StageSeconds()
	if sum > 1.05*m.WallSeconds {
		fail("stage seconds %.3f exceed wall %.3f", sum, m.WallSeconds)
	}
	if sum < 0.9*m.WallSeconds {
		fail("stage seconds %.3f cover only %.0f%% of wall %.3f (want >= 90%%)",
			sum, 100*sum/m.WallSeconds, m.WallSeconds)
	}
	if m.MatrixRows == 0 || m.Networks == 0 {
		fail("matrix shape missing: rows=%d networks=%d", m.MatrixRows, m.Networks)
	}
	if *checkFaults {
		injected, quarantineCounters := int64(0), 0
		for name, v := range m.Counters {
			switch {
			case strings.HasPrefix(name, "fenrir_faults_injected_total{"):
				injected += v
			case strings.HasPrefix(name, "fenrir_quarantined_total{"):
				quarantineCounters++
				if v < 0 {
					fail("counter %q is negative: %d", name, v)
				}
			}
		}
		if injected == 0 {
			fail("fault run manifest records no injected faults")
		}
		if quarantineCounters == 0 {
			fail("fault run manifest has no fenrir_quarantined_total counters")
		}
		fmt.Printf("manifestcheck: fault counters ok — %d injected, %d quarantine counters\n",
			injected, quarantineCounters)
	}
	fmt.Printf("manifestcheck: %s ok — %d stages, %.2fs wall (%.0f%% in stages), %dx%d matrix, %d modes\n",
		m.Scenario, len(m.Stages), m.WallSeconds, 100*sum/m.WallSeconds, m.MatrixRows, m.MatrixRows, m.Modes)
}

// checkServeManifest validates a daemon manifest: the serving layer has
// no batch pipeline stages, but it must account for ingest, tenants,
// and checkpoints.
func checkServeManifest(m *obs.Manifest) {
	if m.Scenario != "serve" {
		fail("scenario %q is not a serve manifest", m.Scenario)
	}
	if m.WallSeconds <= 0 {
		fail("wall_seconds = %v", m.WallSeconds)
	}
	ingested := m.Counters["fenrir_serve_ingest_total"]
	if ingested <= 0 {
		fail("daemon manifest records no ingested observations")
	}
	if m.Gauges["fenrir_serve_tenants"] < 1 {
		fail("daemon manifest records no tenants")
	}
	if m.Counters["fenrir_snapshot_writes_total"] <= 0 {
		fail("daemon manifest records no checkpoint writes")
	}
	rejected := int64(0)
	for name, v := range m.Counters {
		if strings.HasPrefix(name, "fenrir_serve_rejected_total{") {
			if v < 0 {
				fail("counter %q is negative: %d", name, v)
			}
			rejected += v
		}
	}
	fmt.Printf("manifestcheck: serve ok — %d observations ingested, %.0f tenants, %d checkpoints, %d rejections\n",
		ingested, m.Gauges["fenrir_serve_tenants"], m.Counters["fenrir_snapshot_writes_total"], rejected)
}

// checkManifestEvents asserts the flight recorder's ring was folded into
// the manifest: at least one structured event, each with a message, in
// strictly increasing sequence order.
func checkManifestEvents(m *obs.Manifest) {
	if len(m.Events) == 0 {
		fail("manifest carries no flight-recorder events")
	}
	for i, ev := range m.Events {
		if ev.Msg == "" {
			fail("event %d has no message", i)
		}
		if i > 0 && ev.Seq <= m.Events[i-1].Seq {
			fail("event seqs not strictly increasing: %d then %d", m.Events[i-1].Seq, ev.Seq)
		}
	}
	fmt.Printf("manifestcheck: events ok — %d flight-recorder events (seq %d..%d)\n",
		len(m.Events), m.Events[0].Seq, m.Events[len(m.Events)-1].Seq)
}

// checkManifestAlerts asserts the telemetry-history alert engine was
// running: the manifest carries an alerts block with at least one
// evaluated rule and at least one sampler tick. A rule still firing at
// shutdown is not an error — the daemon may legitimately die mid-
// incident — but it is warned loudly so smoke scripts and operators see
// the unresolved state.
func checkManifestAlerts(m *obs.Manifest) {
	if m.Alerts == nil {
		fail("manifest has no alerts block — daemon was not self-observing (run with -history-every > 0)")
	}
	a := m.Alerts
	if a.Rules == 0 {
		fail("alerts block evaluated zero rules")
	}
	if a.Samples == 0 {
		fail("alerts block records zero sampler ticks")
	}
	if a.Transitions < 0 {
		fail("alerts block has negative transition count %d", a.Transitions)
	}
	for _, name := range a.Firing {
		fmt.Fprintf(os.Stderr, "manifestcheck: WARNING — rule %q still firing at shutdown\n", name)
	}
	fmt.Printf("manifestcheck: alerts ok — %d rules over %d samples, %d transitions, %d firing at shutdown\n",
		a.Rules, a.Samples, a.Transitions, len(a.Firing))
}

// checkEvictions asserts the telemetry-ring eviction counters landed in
// the manifest — their presence (zero included) is the proof that no
// span or event silently fell out of the bounded rings — and flags any
// nonzero eviction loudly: the manifest's trace and event sections are
// then known to be truncated views.
func checkEvictions(m *obs.Manifest) {
	for _, name := range []string{
		"fenrir_trace_spans_evicted_total",
		"fenrir_flight_events_evicted_total",
	} {
		v, ok := m.Counters[name]
		if !ok {
			fail("eviction counter %q missing from manifest", name)
		}
		if v < 0 {
			fail("counter %q is negative: %d", name, v)
		}
		if v > 0 {
			fmt.Fprintf(os.Stderr, "manifestcheck: WARNING — %s = %d: telemetry rings overflowed, manifest trace/events are truncated\n", name, v)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "manifestcheck: "+format+"\n", args...)
	os.Exit(1)
}
