package weight

import (
	"math"
	"testing"

	"fenrir/internal/core"
)

func space3() *core.Space { return core.NewSpace([]string{"a", "b", "c"}) }

func TestByCount(t *testing.T) {
	s := space3()
	w := ByCount(s, map[string]float64{"a": 256, "c": 4}, 1)
	if w[0] != 256 || w[1] != 1 || w[2] != 4 {
		t.Fatalf("w = %v", w)
	}
}

// Weighted Gower with a count-weight vector must match computing Gower
// over an expanded space where each network is replicated count times.
func TestWeightsEquivalentToReplication(t *testing.T) {
	s := core.NewSpace([]string{"x", "y"})
	a, b := s.NewVector(0), s.NewVector(1)
	a.Set(0, "A")
	a.Set(1, "A")
	b.Set(0, "A")
	b.Set(1, "B")
	w := []float64{3, 2}
	phi := core.Gower(a, b, w, core.PessimisticUnknown)

	// Expanded: 3 copies of x (match), 2 copies of y (mismatch).
	exp := core.NewSpace([]string{"x1", "x2", "x3", "y1", "y2"})
	ea, eb := exp.NewVector(0), exp.NewVector(1)
	for i := 0; i < 5; i++ {
		ea.Set(i, "A")
		if i < 3 {
			eb.Set(i, "A")
		} else {
			eb.Set(i, "B")
		}
	}
	want := core.Gower(ea, eb, nil, core.PessimisticUnknown)
	if math.Abs(phi-want) > 1e-12 {
		t.Fatalf("weighted Φ %v != replicated Φ %v", phi, want)
	}
}
