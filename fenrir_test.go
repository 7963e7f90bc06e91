package fenrir

import (
	"strings"
	"testing"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/report"
)

func testSchedule(n int) Schedule {
	return NewSchedule(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour, n)
}

// buildSeries makes a series with two modes and some noise/unknowns, the
// shape a real user's data has.
func buildSeries(t *testing.T) *Series {
	t.Helper()
	nets := make([]string, 100)
	for i := range nets {
		nets[i] = "net" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	space := NewSpace(nets)
	var vectors []*Vector
	for e := 0; e < 30; e++ {
		v := space.NewVector(Epoch(e))
		for i := 0; i < 100; i++ {
			switch {
			case (e*31+i)%17 == 0: // scattered one-shot losses
			case e < 15:
				v.Set(i, "LAX")
			default:
				if i < 40 {
					v.Set(i, "LAX")
				} else {
					v.Set(i, "AMS")
				}
			}
		}
		vectors = append(vectors, v)
	}
	return NewSeries(space, testSchedule(30), vectors)
}

func TestAnalyzeEndToEnd(t *testing.T) {
	a := Analyze(buildSeries(t), DefaultAnalysisOptions())
	big := 0
	for _, m := range a.Modes.Modes {
		if len(m.Epochs) >= 5 {
			big++
		}
	}
	if big != 2 {
		t.Fatalf("major modes = %d (of %d), want 2", big, len(a.Modes.Modes))
	}
	if len(a.Changes) != 1 || a.Changes[0].At != 15 {
		t.Fatalf("changes = %+v, want one at epoch 15", a.Changes)
	}
	if a.Coverage < 0.9 {
		t.Fatalf("coverage after interpolation = %.2f", a.Coverage)
	}
	rep := a.Report()
	for _, want := range []string{"mode (i)", "mode (ii)", "heatmap", "change at epoch 15"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(report.StackPlot(a.Series), "epoch,AMS,LAX") {
		t.Error("stack plot header wrong")
	}
}

func TestAnalyzeWithoutCleaning(t *testing.T) {
	opts := DefaultAnalysisOptions()
	opts.Clean = false
	a := Analyze(buildSeries(t), opts)
	// Raw coverage is below the cleaned one (losses stay unknown).
	if a.Coverage > 0.95 {
		t.Fatalf("raw coverage = %.2f, expected losses to remain", a.Coverage)
	}
}

func TestAnalyzeMicroCatchmentSuppression(t *testing.T) {
	nets := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	space := NewSpace(nets)
	var vectors []*Vector
	for e := 0; e < 6; e++ {
		v := space.NewVector(Epoch(e))
		for i := 0; i < 9; i++ {
			v.Set(i, "BIG")
		}
		v.Set(9, "TINY")
		vectors = append(vectors, v)
	}
	opts := DefaultAnalysisOptions()
	opts.MicroCatchmentShare = 0.2
	a := Analyze(NewSeries(space, testSchedule(6), vectors), opts)
	if len(a.Suppressed) != 1 || a.Suppressed[0] != "TINY" {
		t.Fatalf("suppressed = %v", a.Suppressed)
	}
	if agg := a.Series.Vectors[0].Aggregate(); agg[core.SiteOther] != 1 {
		t.Fatalf("aggregate after suppression = %v", agg)
	}
}

func TestFacadeGowerAndTransition(t *testing.T) {
	space := NewSpace([]string{"x", "y"})
	a := space.NewVector(0)
	b := space.NewVector(1)
	a.Set(0, "a")
	a.Set(1, "a")
	b.Set(0, "a")
	b.Set(1, "b")
	if phi := Gower(a, b, nil, PessimisticUnknown); phi != 0.5 {
		t.Fatalf("Gower = %v", phi)
	}
	if phi := Gower(a, b, CountWeights(space, map[string]float64{"x": 3}, 1), PessimisticUnknown); phi != 0.75 {
		t.Fatalf("weighted Gower = %v", phi)
	}
	tm := Transition(a, b, nil)
	if tm.At("a", "b") != 1 || tm.At("a", "a") != 1 {
		t.Fatalf("transition cells wrong")
	}
}
