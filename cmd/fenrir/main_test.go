package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fenrir/internal/obs"
)

// TestFaultedRunManifestKeepsFlightLog is the regression test for fault
// lines flooding the flight recorder: `fenrir -scenario wikipedia
// -faults light -faultseed 7 -manifest` logged every injected fault and
// every retry, over 2,000 events, so the 1024-event ring evicted "run
// started" and the manifest held little but fault lines. Injections and
// retries are counted by their labelled counters instead, so the
// manifest keeps the run's first event and evicts nothing.
func TestFaultedRunManifestKeepsFlightLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, devnull
	err = run(cliOptions{scenario: "wikipedia", seed: 42, heatmapDim: 60, faults: "light", faultSeed: 7, manifest: path})
	os.Stdout, os.Stderr = stdout, stderr
	devnull.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	var injected int64
	for name, v := range m.Counters {
		if strings.HasPrefix(name, "fenrir_faults_injected_total{") {
			injected += v
		}
	}
	if injected == 0 {
		t.Fatal("faulted run injected no faults")
	}
	if len(m.Events) == 0 || m.Events[0].Msg != "run started" {
		first := "none"
		if len(m.Events) > 0 {
			first = m.Events[0].Msg
		}
		t.Fatalf("manifest's first flight event is %q, want \"run started\" (%d events, %d faults injected)", first, len(m.Events), injected)
	}
	if v, ok := m.Counters["fenrir_flight_events_evicted_total"]; !ok || v != 0 {
		t.Fatalf("flight recorder evicted %d events (counter present: %v), want 0", v, ok)
	}
}
