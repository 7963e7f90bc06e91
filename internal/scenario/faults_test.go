package scenario

import (
	"testing"

	"fenrir/internal/faults"
)

// The fault layer's contracts at scenario scope: a fixed fault seed must
// reproduce the identical faults (and therefore identical series) at any
// parallelism, and the zero profile must leave a run bit-identical to one
// that never mentions faults at all.

func TestWikipediaFaultsSeededAtAnyParallelism(t *testing.T) {
	cfg := DefaultWikipediaConfig(9)
	cfg.Days = 14
	cfg.Prefixes = 300
	cfg.StubsPerRegion = 8
	cfg.Faults, _ = faults.ByName("light")
	cfg.FaultSeed = 77
	cfg.Parallelism = 1
	a, err := RunWikipedia(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	b, err := RunWikipedia(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, a.Series, b.Series)
	if a.Faults == nil || b.Faults == nil {
		t.Fatal("fault report missing from faulted run")
	}
	if a.Faults.TotalInjected() == 0 {
		t.Fatal("light profile injected nothing over 14 days")
	}
	if a.Faults.TotalInjected() != b.Faults.TotalInjected() {
		t.Fatalf("fault counts differ across parallelism: %d vs %d",
			a.Faults.TotalInjected(), b.Faults.TotalInjected())
	}
	for i := 0; i < a.Matrix.N; i++ {
		for j := 0; j < a.Matrix.N; j++ {
			if a.Matrix.At(i, j) != b.Matrix.At(i, j) {
				t.Fatalf("matrix cell (%d,%d) differs across parallelism", i, j)
			}
		}
	}
}

func TestWikipediaZeroProfileIsByteIdentical(t *testing.T) {
	plain := DefaultWikipediaConfig(9)
	plain.Days = 14
	plain.Prefixes = 300
	plain.StubsPerRegion = 8
	a, err := RunWikipedia(plain)
	if err != nil {
		t.Fatal(err)
	}
	zero := plain
	zero.Faults, _ = faults.ByName("none")
	zero.FaultSeed = 12345 // must be inert without a profile
	b, err := RunWikipedia(zero)
	if err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, a.Series, b.Series)
	if b.Faults != nil || b.Quarantined != nil {
		t.Fatalf("zero profile produced reports: %+v %+v", b.Faults, b.Quarantined)
	}
	if a.ReturnedFraction != b.ReturnedFraction {
		t.Fatal("zero-profile run diverged from plain run")
	}
}

func TestGRootFaultSeedReproducesFaults(t *testing.T) {
	cfg := DefaultGRootConfig(9)
	cfg.Days = 3
	cfg.EpochMinutes = 60
	cfg.VPs = 60
	cfg.StubsPerRegion = 8
	cfg.Faults, _ = faults.ByName("corrupt")
	cfg.FaultSeed = 5
	a, err := RunGRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, a.Series, b.Series)
	if a.Faults.TotalInjected() != b.Faults.TotalInjected() ||
		a.Faults.TotalQuarantined() != b.Faults.TotalQuarantined() {
		t.Fatalf("same fault seed, different faults: %v vs %v", a.Faults, b.Faults)
	}
	// The corrupt profile forges site labels; the quarantine must catch
	// the bogus ones (they decode outside the operator's site list).
	if a.Faults.TotalQuarantined() == 0 {
		t.Fatal("corrupt profile quarantined nothing")
	}
	if a.Quarantined == nil || a.Quarantined.Total == 0 {
		t.Fatal("quarantine report missing or empty")
	}
	// A different fault seed must produce a different fault pattern.
	cfg.FaultSeed = 6
	c, err := RunGRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Faults.TotalInjected() == a.Faults.TotalInjected() &&
		c.Faults.TotalQuarantined() == a.Faults.TotalQuarantined() {
		t.Log("fault totals coincide across seeds; checking series")
		same := true
		for i := range a.Series.Vectors {
			for n := 0; n < a.Series.Space.NumNetworks(); n++ {
				sa, oka := a.Series.Vectors[i].Site(n)
				sc, okc := c.Series.Vectors[i].Site(n)
				if oka != okc || sa != sc {
					same = false
				}
			}
		}
		if same {
			t.Fatal("different fault seeds produced identical faulted series")
		}
	}
}
