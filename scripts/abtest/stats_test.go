package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3}, 0.5, 3},
		{[]float64{3}, 0.25, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{4, 1, 3, 2}, 0.75, 3.25},
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{5, 1, 4, 2, 3}, 0, 1},
		{[]float64{5, 1, 4, 2, 3}, 1, 5},
		// NumPy: np.percentile([10, 20, 30, 40, 50, 60, 70, 80, 90, 100], [25, 75]).
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.25, 32.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.75, 77.5},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestComparisonClaimRule(t *testing.T) {
	lower := metric{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.24}
	base := []float64{83, 82, 84, 81, 85, 83, 82, 84, 83, 86}

	// Ten wins, median gap 10 against a base IQR of 1.75: the claim holds.
	better := comparison{Metric: lower, Base: base, Change: []float64{73, 72, 74, 71, 75, 73, 72, 74, 73, 76}}
	if w := better.wins(); w != 10 {
		t.Fatalf("wins = %d, want 10", w)
	}
	if s := summarize(base); s.Median != 83 || s.IQR() != 1.75 {
		t.Fatalf("base summary = %+v (IQR %v), want median 83, IQR 1.75", s, s.IQR())
	}
	if !better.claimHolds() || !better.withinBound() {
		t.Fatal("a 10/10 win by more than the IQR does not hold")
	}
	if r := better.ratios(); math.Abs(r[0]-73.0/83) > 1e-12 || len(r) != 10 {
		t.Fatalf("ratios = %v", r)
	}

	// Eight wins of ten: the median gap is large, but 8/10 < 9/10.
	eight := comparison{Metric: lower, Base: base, Change: append([]float64(nil), better.Change...)}
	eight.Change[0], eight.Change[1] = 90, 82 // one loss, one tie
	if w := eight.wins(); w != 8 {
		t.Fatalf("wins = %d, want 8 (a tie counts for neither side)", w)
	}
	if eight.claimHolds() {
		t.Fatal("claim holds at 8 of 10 pairs")
	}

	// Ten wins by less than the base's IQR: the claim does not hold.
	slight := comparison{Metric: lower, Base: base, Change: []float64{82, 81, 83, 80, 84, 82, 81, 83, 82, 85}}
	if slight.wins() != 10 || slight.claimHolds() {
		t.Fatalf("a 1 MB win against a 1.75 MB IQR: wins %d, holds %v", slight.wins(), slight.claimHolds())
	}

	// Nine of ten pairs is enough; for a higher-is-better metric the
	// gap runs the other way.
	higher := metric{Name: "ops", Better: "higher", Bound: 0.1}
	up := comparison{Metric: higher,
		Base:   []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
		Change: []float64{12, 12, 12, 12, 12, 12, 12, 12, 12, 9}}
	if up.wins() != 9 || !up.claimHolds() || up.gap() != 2 {
		t.Fatalf("higher is better: wins %d, holds %v, gap %v", up.wins(), up.claimHolds(), up.gap())
	}
}

func TestComparisonBound(t *testing.T) {
	lower := metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.24}
	base := []float64{10, 10, 10}
	if c := (comparison{Metric: lower, Base: base, Change: []float64{12.3, 12.3, 12.3}}); !c.withinBound() {
		t.Error("+23% is not within a 24% bound")
	}
	if c := (comparison{Metric: lower, Base: base, Change: []float64{12.5, 12.5, 12.5}}); c.withinBound() {
		t.Error("+25% is within a 24% bound")
	}
	higher := metric{Name: "ops", Better: "higher", Bound: 0.1}
	if c := (comparison{Metric: higher, Base: base, Change: []float64{8, 8, 8}}); c.withinBound() {
		t.Error("-20% of a higher-is-better metric is within a 10% bound")
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1, 2,90001")
	if err != nil || len(got) != 3 || got[2] != 90001 {
		t.Fatalf("parseSeeds = %v, %v", got, err)
	}
	if _, err := parseSeeds("1,x"); err == nil {
		t.Fatal("parseSeeds accepted a non-number")
	}
}
