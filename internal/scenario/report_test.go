package scenario

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/report"
	"fenrir/internal/timeline"
)

// reportConcat is Report as it was first written, appending each piece
// to the whole report string: the oracle Report's output must match
// byte for byte.
func reportConcat(a *Analysis) string {
	out := report.ModesSummary(a.Modes)
	out += report.Heatmap(a.Matrix, 60)
	for _, c := range a.Changes {
		out += fmt.Sprintf("change at epoch %d: Phi dropped to %.2f (baseline %.2f)\n",
			int(c.At), c.Phi, c.Baseline)
		if ex := c.Explanation; ex != nil {
			out += fmt.Sprintf("  %s\n", ex.Label())
			if f, ok := ex.TopFlow(); ok {
				out += fmt.Sprintf("  top flow: %s -> %s (%.0f)\n", f.From, f.To, f.Count)
			}
		}
	}
	return out
}

// eventfulAnalysis analyses 400 epochs of 64 networks whose routing
// moves to the next of three site patterns every 8 epochs, so detection
// reports a change at nearly every move.
func eventfulAnalysis(t *testing.T) *Analysis {
	t.Helper()
	nets := make([]string, 64)
	for i := range nets {
		nets[i] = fmt.Sprintf("n%02d", i)
	}
	sites := []string{"AMS", "LAX", "SIN"}
	space := core.NewSpace(nets)
	const epochs = 400
	vs := make([]*core.Vector, epochs)
	for e := range vs {
		v := space.NewVector(timeline.Epoch(e))
		for i := range nets {
			v.Set(i, sites[(i/8+e/8)%len(sites)])
		}
		vs[e] = v
	}
	sched := timeline.NewSchedule(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), 4*time.Minute, epochs)
	return Analyze(core.NewSeries(space, sched, vs, nil), DefaultAnalysisOptions())
}

// TestReportBuildsOnce: with 40 or more change events, Report returns
// the concatenating oracle's text and allocates under 8 bytes per byte
// it returns. Appending each event to the whole report string read
// about 43.
func TestReportBuildsOnce(t *testing.T) {
	a := eventfulAnalysis(t)
	if len(a.Changes) < 40 {
		t.Fatalf("%d change events, want at least 40", len(a.Changes))
	}
	want := reportConcat(a)
	if got := a.Report(); got != want {
		t.Fatalf("Report differs from the concatenated report:\n got: %q\nwant: %q", got, want)
	}
	const calls = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		want = a.Report()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / calls / float64(len(want))
	t.Logf("%d events, %d-byte report, %.1f bytes allocated per byte", len(a.Changes), len(want), perByte)
	if perByte >= 8 {
		t.Fatalf("Report allocates %.1f bytes per byte it returns, want under 8", perByte)
	}
}
