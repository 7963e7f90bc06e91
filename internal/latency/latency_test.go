package latency

import (
	"math"
	"testing"

	"fenrir/internal/core"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {50, 50}, {90, 90}, {100, 100}, {10, 10},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 90)) {
		t.Error("empty percentile not NaN")
	}
	// Does not mutate input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestBySite(t *testing.T) {
	s := core.NewSpace([]string{"a", "b", "c", "d"})
	v := s.NewVector(0)
	v.Set(0, "LAX")
	v.Set(1, "LAX")
	v.Set(2, "AMS")
	// d stays unknown.
	rtts := map[int]float64{0: 10, 1: 30, 2: 100, 3: 999}
	got := BySite(v, rtts, 100)
	if got["LAX"] != 30 || got["AMS"] != 100 {
		t.Fatalf("BySite = %v", got)
	}
	if _, ok := got[""]; ok {
		t.Fatal("unknown catchment leaked into site map")
	}
}

func TestSiteSeries(t *testing.T) {
	s := NewSiteSeries()
	s.Append(0, map[string]float64{"LAX": 20})
	s.Append(1, map[string]float64{"LAX": 22, "SCL": 15})
	s.Append(2, map[string]float64{"SCL": 14})
	if len(s.Sites) != 2 {
		t.Fatalf("Sites = %v", s.Sites)
	}
	if s.Value("LAX", 0) != 20 || s.Value("LAX", 1) != 22 {
		t.Fatal("LAX series wrong")
	}
	if !math.IsNaN(s.Value("LAX", 2)) {
		t.Fatal("LAX should vanish at epoch 2")
	}
	if !math.IsNaN(s.Value("SCL", 0)) {
		t.Fatal("SCL should be NaN before first appearance")
	}
	if s.Value("SCL", 2) != 14 {
		t.Fatal("SCL series wrong")
	}
	if !math.IsNaN(s.Value("XXX", 0)) {
		t.Fatal("unknown site should be NaN")
	}
}
