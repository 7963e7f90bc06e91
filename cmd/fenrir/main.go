// Command fenrir runs one of the built-in measurement scenarios on the
// simulated Internet and prints the Fenrir analysis an operator would
// read: the mode summary, the similarity heatmap, catchment aggregates,
// and detected change events.
//
// Usage:
//
//	fenrir -scenario broot                     # five-year anycast study
//	fenrir -scenario groot -heatmap 40         # ten-day DNSMON-style study
//	fenrir -scenario usc -stack                # enterprise hop-3 catchments
//	fenrir -scenario google|wikipedia          # website catchments
//	fenrir -scenario validation                # Table 4 ground-truth study
//
// Observability (see DESIGN.md §6):
//
//	fenrir -scenario broot -metrics :9090      # /metrics, /debug/pprof
//	fenrir -scenario broot -manifest run.json  # JSON run manifest on exit
//
// Tracing and the flight recorder (see DESIGN.md §9):
//
//	fenrir -scenario broot -trace out.json     # Chrome trace-event tree (Perfetto)
//
// Fault injection (see DESIGN.md §7):
//
//	fenrir -scenario wikipedia -faults light   # seeded faults on every substrate
//	fenrir -scenario groot -faults heavy -faultseed 7
//
// Long-running daemon (see DESIGN.md §8):
//
//	fenrir -serve :8080 -snapshot-dir /var/lib/fenrir
//	fenrir -serve :8080 -snapshot-dir state -faults light -manifest run.json
//	fenrir -serve :8080 -window 2048           # bounded tenant history
//	fenrir -serve :8080 -shards 8              # sharded tenant tier (DESIGN.md §15)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/dataset"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
	"fenrir/internal/obs/history"
	"fenrir/internal/report"
	"fenrir/internal/scenario"
	"fenrir/internal/serve"
)

type cliOptions struct {
	scenario   string
	seed       uint64
	heatmapDim int
	stack      bool
	explain    bool
	export     string
	parallel   int
	metrics    string
	manifest   string
	trace      string
	faults     string
	faultSeed  uint64

	serve         string
	snapshotDir   string
	snapshotEvery int
	queueDepth    int
	window        int
	shards        int
	historyEvery  time.Duration
	historyRetain int
	alertRules    string
	seriesCap     int
}

func main() {
	var o cliOptions
	flag.StringVar(&o.scenario, "scenario", "broot", "scenario: broot groot usc google wikipedia validation")
	flag.Uint64Var(&o.seed, "seed", 42, "root seed")
	flag.IntVar(&o.heatmapDim, "heatmap", 60, "heatmap resolution (cells per side)")
	flag.BoolVar(&o.stack, "stack", false, "also print the catchment stack plot CSV")
	flag.BoolVar(&o.explain, "explain", false, "print each change event's provenance: verdict, site flows, top contributors")
	flag.StringVar(&o.export, "export", "", "write the scenario's vector dataset to this CSV file")
	flag.IntVar(&o.parallel, "parallelism", 0, "similarity-matrix workers (0 = all cores, 1 = serial)")
	flag.StringVar(&o.metrics, "metrics", "", "serve /metrics and /debug/pprof on this address (e.g. :9090) while running")
	flag.StringVar(&o.manifest, "manifest", "", "write a JSON run manifest to this file on completion")
	flag.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON file on completion (load in Perfetto or chrome://tracing)")
	flag.StringVar(&o.faults, "faults", "none", "fault-injection profile: "+strings.Join(faults.Names(), " "))
	flag.Uint64Var(&o.faultSeed, "faultseed", 0, "fault-injector seed (0 derives one from -seed)")
	flag.StringVar(&o.serve, "serve", "", "run the long-lived monitoring daemon on this address (e.g. :8080) instead of a batch scenario")
	flag.StringVar(&o.snapshotDir, "snapshot-dir", "", "daemon checkpoint directory (warm-restarts tenants found there)")
	flag.IntVar(&o.snapshotEvery, "snapshot-every", 0, "daemon: checkpoint a tenant after this many accepted observations (0 = 64)")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "daemon: per-tenant ingest queue depth (0 = 256)")
	flag.IntVar(&o.window, "window", 0, "daemon: default sliding-window bound for tenants whose spec sets none (0 = unbounded history)")
	flag.IntVar(&o.shards, "shards", 0, "daemon: in-process tenant shards, each with its own lock and snapshot subdirectory (0 = 1)")
	flag.DurationVar(&o.historyEvery, "history-every", 10*time.Second, "daemon: telemetry history sampling interval (0 disables /v1/query, /v1/alerts, /debug/timeline)")
	flag.IntVar(&o.historyRetain, "history-retain", 0, "daemon: samples retained per history series (0 = 360)")
	flag.StringVar(&o.alertRules, "alert-rules", "", "daemon: JSON file of alert rules evaluated in addition to the built-in defaults")
	flag.IntVar(&o.seriesCap, "series-cap", 0, "daemon: max tenant label values per metric family; overflow aggregates into tenant=\"__other__\" (0 = unlimited)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fenrir:", err)
		os.Exit(1)
	}
}

func run(o cliOptions) error {
	if o.serve != "" {
		return runServe(o)
	}
	t0 := time.Now()
	started := t0

	// The registry exists only when some surface will read it; a nil
	// registry turns every instrumentation point in the pipeline into a
	// no-op, so the default run is byte-identical to the uninstrumented
	// binary.
	var reg *obs.Registry
	if o.metrics != "" || o.manifest != "" || o.trace != "" {
		reg = obs.NewRegistry()
	}
	// The root span anchors the run's trace tree: every top-level stage
	// span and every tile/sweep/ingest child hangs off it. BeginTrace on
	// a nil registry returns nil, keeping the uninstrumented path inert.
	root := reg.BeginTrace("run/" + o.scenario)
	root.SetAttr("seed", int64(o.seed))
	reg.Logger().Info("run started", "scenario", o.scenario, "seed", o.seed)
	var sampler *obs.RuntimeSampler
	if o.manifest != "" {
		sampler = obs.StartRuntimeSampler(0)
	}
	if o.metrics != "" {
		srv, err := obs.NewServer(o.metrics, reg)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fenrir: serving http://%s/metrics (also /debug/pprof/)\n", srv.Addr)
	}

	prof, ok := faults.ByName(o.faults)
	if !ok {
		return fmt.Errorf("unknown fault profile %q (have: %s)", o.faults, strings.Join(faults.Names(), " "))
	}

	var (
		series   *core.Series
		matrix   *core.SimMatrix
		modes    *core.ModesResult
		changes  []core.ChangeEvent
		faultRep *faults.Report
		cfgAny   any // scenario config, recorded verbatim in the manifest
	)
	// finish writes the manifest; every exit path that has run a scenario
	// goes through it so -manifest works for all scenarios.
	finish := func() error {
		root.End()
		reg.Logger().Info("run finished", "scenario", o.scenario,
			"wall_seconds", time.Since(t0).Seconds())
		if faultRep != nil {
			fmt.Fprintln(os.Stderr, faultRep.String())
		}
		if o.trace != "" {
			if err := obs.WriteTraceFile(o.trace, reg); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			fmt.Fprintf(os.Stderr, "fenrir: trace written to %s (%d spans)\n",
				o.trace, len(reg.TraceRecords()))
		}
		if o.manifest == "" {
			return nil
		}
		m := &obs.Manifest{
			Scenario:    o.scenario,
			Seed:        o.seed,
			Started:     started,
			WallSeconds: time.Since(t0).Seconds(),
		}
		if cfgAny != nil {
			if raw, err := json.Marshal(cfgAny); err == nil {
				m.Config = raw
			}
		}
		m.FillFromRegistry(reg)
		if matrix != nil {
			m.MatrixRows = matrix.N
		}
		if series != nil {
			m.Networks = series.Space.NumNetworks()
		}
		if modes != nil {
			m.Modes = len(modes.Modes)
		}
		m.Detections = core.SummarizeDetections(changes)
		m.PeakGoroutines, m.PeakHeapBytes = sampler.Stop()
		if err := obs.WriteManifest(o.manifest, m); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fenrir: manifest written to %s (%.2fs wall, %.2fs in stages)\n",
			o.manifest, m.WallSeconds, m.StageSeconds())
		return nil
	}

	switch o.scenario {
	case "broot":
		cfg := scenario.DefaultBRootConfig(o.seed)
		cfg.Parallelism = o.parallel
		cfg.Faults, cfg.FaultSeed = prof, o.faultSeed
		cfg.Obs = reg
		cfgAny = cfg
		res, err := scenario.RunBRoot(cfg)
		if err != nil {
			return err
		}
		series, matrix, modes, faultRep = res.Series, res.Matrix, res.Modes, res.Faults
	case "groot":
		cfg := scenario.DefaultGRootConfig(o.seed)
		cfg.EpochMinutes = 30 // printable scale
		cfg.Parallelism = o.parallel
		cfg.Faults, cfg.FaultSeed = prof, o.faultSeed
		cfg.Obs = reg
		cfgAny = cfg
		res, err := scenario.RunGRoot(cfg)
		if err != nil {
			return err
		}
		series, matrix, modes, faultRep = res.Series, res.Matrix, res.Modes, res.Faults
		fmt.Print(report.TransitionTable(res.DrainTransitions[0], "transition at first STR drain:"))
	case "usc":
		cfg := scenario.DefaultUSCConfig(o.seed)
		cfg.Parallelism = o.parallel
		cfg.Faults, cfg.FaultSeed = prof, o.faultSeed
		cfg.Obs = reg
		cfgAny = cfg
		res, err := scenario.RunUSC(cfg)
		if err != nil {
			return err
		}
		series, matrix, modes, faultRep = res.Series, res.Matrix, res.Modes, res.Faults
	case "google":
		cfg := scenario.DefaultGoogleConfig(o.seed)
		cfg.Parallelism = o.parallel
		cfg.Faults, cfg.FaultSeed = prof, o.faultSeed
		cfg.Obs = reg
		cfgAny = cfg
		res, err := scenario.RunGoogle(cfg)
		if err != nil {
			return err
		}
		series, matrix, modes, faultRep = res.Series, res.Matrix, res.Modes, res.Faults
	case "wikipedia":
		cfg := scenario.DefaultWikipediaConfig(o.seed)
		cfg.Parallelism = o.parallel
		cfg.Faults, cfg.FaultSeed = prof, o.faultSeed
		cfg.Obs = reg
		cfgAny = cfg
		res, err := scenario.RunWikipedia(cfg)
		if err != nil {
			return err
		}
		series, matrix, modes, faultRep = res.Series, res.Matrix, res.Modes, res.Faults
	case "validation":
		cfg := scenario.DefaultValidationConfig(o.seed)
		cfg.Parallelism = o.parallel
		cfg.Faults, cfg.FaultSeed = prof, o.faultSeed
		cfg.Obs = reg
		cfgAny = cfg
		res, err := scenario.RunValidation(cfg)
		if err != nil {
			return err
		}
		series, matrix, modes, faultRep = res.Series, res.Matrix, res.Modes, res.Faults
		sp := reg.StartSpan("report")
		changes = res.Detections
		v := res.Validation
		fmt.Printf("ground-truth groups: %d (from %d raw entries)\n", len(res.Groups), res.RawEntries)
		fmt.Printf("TP=%d FN=%d FP=%d TN=%d unmatched=%d\n", v.TP, v.FN, v.FP, v.TN, v.Unmatched)
		fmt.Printf("recall=%.2f precision=%.2f accuracy=%.2f\n", v.Recall(), v.Precision(), v.Accuracy())
		if n := v.DrainAttributed + v.DrainMisattributed; n > 0 {
			fmt.Printf("drain attribution: %d/%d top flows name the drained site\n", v.DrainAttributed, n)
		}
		if o.explain {
			for _, c := range changes {
				fmt.Printf("change at epoch %d: Phi %.2f (baseline %.2f)\n", c.At, c.Phi, c.Baseline)
				fmt.Print(explainText(c))
			}
		}
		sp.SetItems(int64(len(changes)))
		sp.End()
		return finish()
	default:
		return fmt.Errorf("unknown scenario %q", o.scenario)
	}

	spRep := reg.StartSpan("report")
	if o.export != "" {
		f, err := os.Create(o.export)
		if err != nil {
			return err
		}
		if err := dataset.Save(f, series); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("dataset written to %s (%d networks x %d epochs)\n",
			o.export, series.Space.NumNetworks(), series.Len())
	}
	fmt.Print(report.ModesSummary(modes))
	fmt.Print(report.Heatmap(matrix, o.heatmapDim))
	if o.stack {
		fmt.Print(report.StackPlot(series))
	}
	changes = core.DetectChanges(series, nil, core.DefaultDetectOptions())
	core.ObserveDetections(reg, spRep, changes)
	for _, c := range changes {
		fmt.Printf("change at epoch %d: Phi %.2f (baseline %.2f)\n", c.At, c.Phi, c.Baseline)
		if o.explain {
			fmt.Print(explainText(c))
		}
	}
	if len(changes) == 0 {
		fmt.Println("no change events detected at default sensitivity")
	}
	spRep.SetItems(int64(len(changes)))
	spRep.End()
	return finish()
}

// runServe runs the long-lived monitoring daemon: tenants behind the
// internal/serve HTTP API, checkpointing to -snapshot-dir, draining
// gracefully on SIGTERM/SIGINT. The daemon always carries a metrics
// registry — /metrics is part of its own API surface.
func runServe(o cliOptions) error {
	t0 := time.Now()
	started := t0
	reg := obs.NewRegistry()
	// The daemon traces unconditionally: request and ingest spans land in
	// the bounded ring behind /debug/trace, and -trace additionally dumps
	// the tree to a file on shutdown.
	root := reg.BeginTrace("serve")
	var sampler *obs.RuntimeSampler
	if o.manifest != "" {
		sampler = obs.StartRuntimeSampler(0)
	}

	prof, ok := faults.ByName(o.faults)
	if !ok {
		return fmt.Errorf("unknown fault profile %q (have: %s)", o.faults, strings.Join(faults.Names(), " "))
	}
	seed := o.faultSeed
	if seed == 0 {
		seed = o.seed
	}
	inj := faults.New(prof, seed, reg) // nil for the zero profile

	var rules []history.Rule
	if o.alertRules != "" {
		loaded, err := history.LoadRules(o.alertRules)
		if err != nil {
			return fmt.Errorf("alert rules: %w", err)
		}
		rules = loaded
	}
	srv, err := serve.New(serve.Config{
		SnapshotDir:   o.snapshotDir,
		SnapshotEvery: o.snapshotEvery,
		QueueDepth:    o.queueDepth,
		DefaultWindow: o.window,
		Shards:        o.shards,
		Obs:           reg,
		Faults:        inj,
		HistoryEvery:  o.historyEvery,
		HistoryRetain: o.historyRetain,
		AlertRules:    rules,
		SeriesCap:     o.seriesCap,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.serve)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "fenrir: serving api http://%s (tenants under /v1/tenants, metrics under /metrics)\n", ln.Addr())
	reg.Logger().Info("daemon started", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "fenrir: %v — draining\n", got)
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}
	if err := srv.Drain(); err != nil {
		fmt.Fprintf(os.Stderr, "fenrir: drain checkpoint failed: %v\n", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx) //nolint:errcheck // best-effort close on the way out

	if inj != nil {
		fmt.Fprintln(os.Stderr, inj.Report().String())
	}
	root.End()
	reg.Logger().Info("daemon stopped", "wall_seconds", time.Since(t0).Seconds())
	if o.trace != "" {
		if err := obs.WriteTraceFile(o.trace, reg); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "fenrir: trace written to %s (%d spans)\n",
			o.trace, len(reg.TraceRecords()))
	}
	if o.manifest != "" {
		m := &obs.Manifest{
			Scenario:    "serve",
			Seed:        o.seed,
			Started:     started,
			WallSeconds: time.Since(t0).Seconds(),
		}
		m.FillFromRegistry(reg)
		// The alerts block records the alert engine's whole run: rule
		// count, sampler ticks, anything still firing at shutdown, and
		// total transitions. Nil (absent from the JSON) when the daemon
		// ran with -history-every 0.
		m.Alerts = srv.History().ManifestSummary()
		m.PeakGoroutines, m.PeakHeapBytes = sampler.Stop()
		if err := obs.WriteManifest(o.manifest, m); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fenrir: manifest written to %s (%.2fs wall)\n", o.manifest, m.WallSeconds)
	}
	return nil
}

// explainText renders a change event's provenance for -explain output:
// the recurrence verdict, the largest site-to-site weight flows, the
// moved/stayed/unobserved mass split, and the top contributing networks.
func explainText(c core.ChangeEvent) string {
	ex := c.Explanation
	if ex == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  verdict: %s\n", ex.Label())
	fmt.Fprintf(&b, "  mass: moved %.0f stayed %.0f unobserved %.0f of %.0f",
		ex.Moved, ex.Stayed, ex.Unobserved, ex.Total)
	if ex.WentUnknown > 0 || ex.BecameKnown > 0 {
		fmt.Fprintf(&b, " (went-unknown %.0f, became-known %.0f)", ex.WentUnknown, ex.BecameKnown)
	}
	b.WriteString("\n")
	for _, f := range ex.TopFlows {
		fmt.Fprintf(&b, "  flow: %s -> %s (%.0f)\n", f.From, f.To, f.Count)
	}
	fmt.Fprintf(&b, "  changed networks: %d (weight %.0f)\n", ex.ChangedCount, ex.ChangedWeight)
	for _, ct := range ex.Contributors {
		fmt.Fprintf(&b, "  contributor: %s %s -> %s (%.1f)\n", ct.Network, ct.From, ct.To, ct.Weight)
	}
	return b.String()
}
