package latency

import (
	"testing"

	"fenrir/internal/core"
)

func polarizationFixture() (*core.Vector, map[int]float64, map[string]map[int]float64) {
	s := core.NewSpace([]string{"n0", "n1", "n2", "n3"})
	v := s.NewVector(0)
	v.Set(0, "FAR")  // polarized: 250 ms assigned, 30 ms possible
	v.Set(1, "NEAR") // fine: already at its best site
	v.Set(2, "FAR")  // inflated but under the absolute floor
	// n3 unknown: must be skipped even if RTTs exist.
	assigned := map[int]float64{0: 250, 1: 30, 2: 25, 3: 500}
	perSite := map[string]map[int]float64{
		"NEAR": {0: 30, 1: 30, 2: 10, 3: 10},
		"FAR":  {0: 250, 1: 260, 2: 25, 3: 500},
	}
	return v, assigned, perSite
}

func TestDetectPolarization(t *testing.T) {
	v, assigned, perSite := polarizationFixture()
	got := DetectPolarization(v, assigned, perSite, DefaultPolarizationOptions())
	if len(got) != 1 {
		t.Fatalf("polarized = %+v, want exactly n0", got)
	}
	p := got[0]
	if p.Network != 0 || p.AssignedRTT != 250 || p.BestRTT != 30 {
		t.Fatalf("client = %+v", p)
	}
	if inf := p.Inflation(); inf < 8.3 || inf > 8.4 {
		t.Fatalf("inflation = %v", inf)
	}
}

func TestPolarizationFloorSuppressesSmallDeltas(t *testing.T) {
	v, assigned, perSite := polarizationFixture()
	opts := DefaultPolarizationOptions()
	opts.MinDeltaMs = 0 // without the floor, n2 (25 vs 10 ms) is flagged
	got := DetectPolarization(v, assigned, perSite, opts)
	if len(got) != 2 {
		t.Fatalf("polarized = %+v, want n0 and n2", got)
	}
	// Sorted worst first: n0 (8.3x) before n2 (2.5x).
	if got[0].Network != 0 || got[1].Network != 2 {
		t.Fatalf("order = %+v", got)
	}
}

func TestPolarizationSkipsUnknownAssignments(t *testing.T) {
	v, assigned, perSite := polarizationFixture()
	got := DetectPolarization(v, assigned, perSite, DefaultPolarizationOptions())
	for _, p := range got {
		if p.Network == 3 {
			t.Fatal("unknown-catchment network flagged")
		}
	}
}

func TestPolarizationBadFactorNormalized(t *testing.T) {
	v, assigned, perSite := polarizationFixture()
	opts := PolarizationOptions{Factor: 0.5, MinDeltaMs: 20}
	got := DetectPolarization(v, assigned, perSite, opts)
	if len(got) != 1 {
		t.Fatalf("factor fallback broken: %+v", got)
	}
}
