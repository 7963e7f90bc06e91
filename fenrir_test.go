package fenrir

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/report"
	"fenrir/internal/rng"
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

// TestAnalyzeValidSitesCountedOnce holds the ValidSites guard to one
// rule with and without cleaning: a label it rejects is quarantined, and
// the quarantine is counted and logged once.
func TestAnalyzeValidSitesCountedOnce(t *testing.T) {
	for _, clean := range []bool{true, false} {
		s := buildSeries(t)
		s.Vectors[3].Set(7, "bogus-zz9")
		reg := NewRegistry()
		opts := DefaultAnalysisOptions()
		opts.Clean, opts.Obs = clean, reg
		opts.ValidSites = func(site string) bool { return site == "LAX" || site == "AMS" }
		a := Analyze(s, opts)
		if q := a.Quarantined; q == nil || q.Total != 1 || q.ByLabel["bogus-zz9"] != 1 {
			t.Fatalf("clean %v: quarantine report %+v, want the one bogus cell", clean, q)
		}
		if site, ok := a.Series.Vectors[3].Site(7); ok && site == "bogus-zz9" {
			t.Errorf("clean %v: bogus label survived analysis", clean)
		}
		if got := reg.Read().Counters[`fenrir_quarantined_total{reason="invalid-site"}`]; got != 1 {
			t.Errorf("clean %v: invalid-site counter %d, want 1", clean, got)
		}
		logged := 0
		for _, ev := range reg.Events(0) {
			if strings.Contains(ev.Msg, "quarantined") {
				logged++
			}
		}
		if logged != 1 {
			t.Errorf("clean %v: %d quarantine log lines, want 1", clean, logged)
		}
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

// recurringSeries is a seeded series whose routing cycles through three
// regimes and back to earlier ones, with collection gaps (missing epochs)
// and unknowns, so detection fires both novel and recurrence verdicts.
func recurringSeries(seed uint64) *Series {
	r := rng.New(seed)
	const networks, epochs = 120, 180
	ids := make([]string, networks)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%03d", i)
	}
	space := NewSpace(ids)
	regimes := []string{"LAX", "AMS", "LAX", "SIN", "AMS", "LAX"}
	var vs []*Vector
	e := Epoch(0)
	for k := 0; k < epochs; k++ {
		if r.Bool(0.04) {
			e += Epoch(1 + r.Intn(3))
		}
		v := space.NewVector(e)
		base := regimes[(k/20)%len(regimes)]
		for i := 0; i < networks; i++ {
			switch {
			case r.Bool(0.15): // unobserved
			case r.Bool(0.08):
				v.Set(i, regimes[r.Intn(len(regimes))])
			case i%5 == 0:
				v.Set(i, "NRT") // a stable catchment outside the regimes
			default:
				v.Set(i, base)
			}
		}
		vs = append(vs, v)
		e++
	}
	return NewSeries(space, testSchedule(int(e)), vs)
}

// TestAnalyzeChangesMatchDetectChanges holds Analyze, which reads the
// detection Φ from its similarity matrix when the detection mode is the
// matrix's, to the scalar DetectChanges over the analysed series: every
// event equal field for field, floats by their bits and Explanations by
// value. The cases where the modes differ fail if the matrix is read
// anyway; the ones where they agree fail if a fresh detector asks for a
// row's Φ against itself, which the matrix has as 1 and Gower below 1.
func TestAnalyzeChangesMatchDetectChanges(t *testing.T) {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	modes := []UnknownMode{PessimisticUnknown, core.KnownOnly}
	for _, seed := range []uint64{3, 4} {
		s := recurringSeries(seed)
		r := rng.New(seed + 100)
		fractional := make([]float64, s.Space.NumNetworks())
		for i := range fractional {
			fractional[i] = 0.1 + 10*r.Float64()
		}
		var recurrences, novel, gaps int
		for _, clean := range []bool{true, false} {
			for _, unknowns := range modes {
				for _, det := range modes {
					for _, w := range [][]float64{nil, fractional} {
						opts := DefaultAnalysisOptions()
						opts.Clean, opts.Unknowns, opts.Detection.Mode, opts.Weights = clean, unknowns, det, w
						a := Analyze(s, opts)
						want := core.DetectChanges(a.Series, w, opts.Detection)
						name := fmt.Sprintf("seed %d clean %v unknowns %v detection %v weighted %v", seed, clean, unknowns, det, w != nil)
						if len(a.Changes) != len(want) {
							t.Fatalf("%s: %d events, DetectChanges %d", name, len(a.Changes), len(want))
						}
						for i, g := range a.Changes {
							wv := want[i]
							if g.At != wv.At || !same(g.Phi, wv.Phi) || !same(g.Baseline, wv.Baseline) || !same(g.Magnitude, wv.Magnitude) ||
								!reflect.DeepEqual(*g.Explanation, *wv.Explanation) {
								t.Fatalf("%s: event %d %+v %+v, DetectChanges %+v %+v", name, i, g, *g.Explanation, wv, *wv.Explanation)
							}
							if g.Explanation.Recurrence {
								recurrences++
							} else {
								novel++
							}
						}
					}
				}
			}
		}
		for i := 1; i < s.Len(); i++ {
			if s.Vectors[i].T != s.Vectors[i-1].T+1 {
				gaps++
			}
		}
		if recurrences == 0 || novel == 0 || gaps == 0 {
			t.Fatalf("seed %d: %d recurrences, %d novel events, %d gaps: the fixture must have all three", seed, recurrences, novel, gaps)
		}
	}
}
