package scenario

import (
	"testing"

	"fenrir/internal/core"
)

// Reproducibility is a deliverable: every figure must regenerate
// identically from its seed. These tests run each scenario twice at small
// scale and require bit-identical analysis outputs.

func vectorsEqual(t *testing.T, a, b *core.Series) {
	t.Helper()
	if a.Len() != b.Len() || a.Space.NumNetworks() != b.Space.NumNetworks() {
		t.Fatalf("shape differs: %dx%d vs %dx%d",
			a.Len(), a.Space.NumNetworks(), b.Len(), b.Space.NumNetworks())
	}
	for i := range a.Vectors {
		va, vb := a.Vectors[i], b.Vectors[i]
		if va.T != vb.T {
			t.Fatalf("epoch %d vs %d at row %d", va.T, vb.T, i)
		}
		for n := 0; n < a.Space.NumNetworks(); n++ {
			sa, oka := va.Site(n)
			sb, okb := vb.Site(n)
			if oka != okb || sa != sb {
				t.Fatalf("cell (%d,%d) differs: %q/%v vs %q/%v", i, n, sa, oka, sb, okb)
			}
		}
	}
}

func TestBRootDeterministic(t *testing.T) {
	cfg := smallBRoot()
	cfg.LatencyEvery = 0
	a, err := RunBRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, a.Series, b.Series)
	if len(a.Modes.Modes) != len(b.Modes.Modes) || a.Modes.Threshold != b.Modes.Threshold {
		t.Fatal("mode discovery not deterministic")
	}
}

func TestUSCDeterministic(t *testing.T) {
	cfg := DefaultUSCConfig(9)
	cfg.EpochDays = 28
	cfg.StubsPerRegion = 8
	cfg.HitlistStride = 4
	a, err := RunUSC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUSC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, a.Series, b.Series)
	if len(a.FlowsBefore) != len(b.FlowsBefore) {
		t.Fatal("flows not deterministic")
	}
	for k, v := range a.FlowsBefore {
		if b.FlowsBefore[k] != v {
			t.Fatalf("flow %q: %d vs %d", k, v, b.FlowsBefore[k])
		}
	}
}

func TestWikipediaDeterministic(t *testing.T) {
	cfg := DefaultWikipediaConfig(9)
	cfg.Days = 14
	cfg.Prefixes = 300
	cfg.StubsPerRegion = 8
	a, err := RunWikipedia(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWikipedia(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vectorsEqual(t, a.Series, b.Series)
	if a.ReturnedFraction != b.ReturnedFraction {
		t.Fatal("returned fraction not deterministic")
	}
}

func TestValidationDeterministic(t *testing.T) {
	cfg := DefaultValidationConfig(9)
	cfg.Epochs = 700
	cfg.VPs = 80
	cfg.StubsPerRegion = 8
	a, err := RunValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Validation != b.Validation {
		t.Fatalf("validation differs: %+v vs %+v", a.Validation, b.Validation)
	}
	if len(a.Changes) != len(b.Changes) {
		t.Fatal("detections not deterministic")
	}
}

func TestSeedsProduceDifferentWorlds(t *testing.T) {
	cfgA := DefaultWikipediaConfig(1)
	cfgA.Days = 16
	cfgA.Prefixes = 200
	cfgA.StubsPerRegion = 8
	cfgB := cfgA
	cfgB.Seed = 2
	a, err := RunWikipedia(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWikipedia(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds must not produce identical catchment aggregates.
	aggA := a.Series.Vectors[0].Aggregate()
	aggB := b.Series.Vectors[0].Aggregate()
	same := true
	for site, n := range aggA {
		if aggB[site] != n {
			same = false
			break
		}
	}
	if same && len(aggA) == len(aggB) {
		t.Fatal("different seeds produced identical first-epoch aggregates")
	}
}
