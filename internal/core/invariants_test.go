package core

// Cross-module invariants tying the three quantification tools together:
// Φ, the transition matrix, and clustering must agree about the same pair
// of vectors, because operators will read them side by side.

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// randomVectorPair builds two random vectors over n networks with the
// given site alphabet and unknown probability.
func randomVectorPair(r *rng.Source, n int, unknownP float64) (*Vector, *Vector) {
	s := NewSpace(nets(n))
	sites := []string{"A", "B", "C", SiteError}
	mk := func(t timeline.Epoch) *Vector {
		v := s.NewVector(t)
		for i := 0; i < n; i++ {
			if r.Bool(unknownP) {
				continue
			}
			v.Set(i, sites[r.Intn(len(sites))])
		}
		return v
	}
	return mk(0), mk(1)
}

// Property: unweighted pessimistic Φ equals the transition matrix's
// stayed mass divided by the network count. The two tools are different
// views of the same comparison and must agree exactly.
func TestQuickGowerMatchesTransitionStayed(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := randomVectorPair(r, 60, 0.3)
		phi := Gower(a, b, nil, PessimisticUnknown)
		tm := Transition(a, b, nil)
		want := tm.Stayed() / 60.0
		return math.Abs(phi-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted Φ equals weighted stayed mass over total weight.
func TestQuickWeightedGowerMatchesTransition(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := randomVectorPair(r, 40, 0.25)
		w := make([]float64, 40)
		var total float64
		for i := range w {
			w[i] = 1 + float64(r.Intn(9))
			total += w[i]
		}
		phi := Gower(a, b, w, PessimisticUnknown)
		tm := Transition(a, b, w)
		return math.Abs(phi-tm.Stayed()/total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling all weights by a positive constant leaves Φ unchanged
// (Φ is a normalized measure).
func TestQuickGowerScaleInvariant(t *testing.T) {
	f := func(seed uint64, scaleRaw uint8) bool {
		r := rng.New(seed)
		a, b := randomVectorPair(r, 30, 0.2)
		scale := 0.5 + float64(scaleRaw)/32
		w := make([]float64, 30)
		w2 := make([]float64, 30)
		for i := range w {
			w[i] = 1 + float64(r.Intn(5))
			w2[i] = w[i] * scale
		}
		p1 := Gower(a, b, w, PessimisticUnknown)
		p2 := Gower(a, b, w2, PessimisticUnknown)
		return math.Abs(p1-p2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: KnownOnly Φ is never below pessimistic Φ (removing unknown
// mismatches from the denominator cannot hurt similarity... it can in
// weird corner cases where the jointly-known set disagrees more than the
// overall rate — so the real invariant is weaker: both stay in [0,1] and
// identical-known vectors give KnownOnly = 1).
func TestQuickKnownOnlyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := randomVectorPair(r, 50, 0.4)
		ko := Gower(a, b, nil, KnownOnly)
		pe := Gower(a, b, nil, PessimisticUnknown)
		if ko < 0 || ko > 1 || pe < 0 || pe > 1 {
			return false
		}
		// Copy a's known cells into b: jointly-known cells all match, so
		// KnownOnly must be exactly 1.
		c := b.Clone()
		for i := 0; i < 50; i++ {
			if x := a.Get(i); x != Unknown && c.Get(i) != Unknown {
				c.SetIndex(i, x)
			}
		}
		return Gower(a, c, nil, KnownOnly) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Moved, Stayed, and Unobserved partition the transition
// matrix — their sum equals the total weight, which equals Σw over the
// network universe, under random weights and unknown rates.
func TestQuickTransitionPartition(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := randomVectorPair(r, 60, 0.35)
		var w []float64
		var total float64
		if r.Bool(0.5) {
			w = make([]float64, 60)
			for i := range w {
				w[i] = 1 + float64(r.Intn(9))
				total += w[i]
			}
		} else {
			total = 60
		}
		tm := Transition(a, b, w)
		sum := tm.Moved() + tm.Stayed() + tm.Unobserved()
		return math.Abs(sum-tm.Total()) < 1e-9 && math.Abs(tm.Total()-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Row sums reproduce the "from" marginal — every site's row
// distribution sums to the weight that vector a assigns to that site,
// with unknowns landing in Row(UnknownLabel).
func TestQuickTransitionRowSums(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := randomVectorPair(r, 50, 0.3)
		tm := Transition(a, b, nil)
		var grand float64
		for _, from := range tm.Sites {
			var rowSum float64
			for _, v := range tm.Row(from) {
				rowSum += v
			}
			var want float64
			for n := 0; n < 50; n++ {
				if s, ok := a.Site(n); ok && s == from {
					want++
				} else if !ok && from == UnknownLabel {
					want++
				}
			}
			if math.Abs(rowSum-want) > 1e-9 {
				return false
			}
			grand += rowSum
		}
		return math.Abs(grand-50) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: LargestFlows is deterministic despite map-backed cells —
// repeated calls on the same matrix, and calls on an identically
// rebuilt matrix, return the identical fully-tied-broken ordering.
func TestQuickLargestFlowsDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := randomVectorPair(r, 40, 0.25)
		tm := Transition(a, b, nil)
		first := tm.LargestFlows(0)
		for trial := 0; trial < 5; trial++ {
			again := Transition(a, b, nil).LargestFlows(0)
			if len(again) != len(first) {
				return false
			}
			for i := range first {
				if first[i] != again[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LargestFlows(k) equals sorting every off-diagonal flow
// (count descending, then From, then To) and keeping the first k. With
// uniform weights over few sites and few networks most counts tie, so
// the bounded insertion's tie-breaks are exercised on every call.
func TestQuickLargestFlowsTopK(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b := randomVectorPair(r, 12+r.Intn(30), 0.2)
		tm := Transition(a, b, nil)
		var all []Flow
		for _, from := range tm.Sites {
			for _, to := range tm.Sites {
				if c := tm.At(from, to); from != to && c > 0 {
					all = append(all, Flow{From: from, To: to, Count: c})
				}
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Count != all[j].Count {
				return all[i].Count > all[j].Count
			}
			if all[i].From != all[j].From {
				return all[i].From < all[j].From
			}
			return all[i].To < all[j].To
		})
		for k := -1; k <= len(all)+2; k++ {
			want := all
			if k > 0 && k < len(all) {
				want = all[:k]
			}
			got := tm.LargestFlows(k)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: HAC is deterministic — two runs over the same matrix produce
// identical merges.
func TestQuickHACDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(20)
		m := NewSimMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, r.Float64())
			}
		}
		a := HAC(m, AverageLinkage)
		b := HAC(m, AverageLinkage)
		if len(a.Merges) != len(b.Merges) {
			return false
		}
		for i := range a.Merges {
			if a.Merges[i] != b.Merges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every Cut partitions the rows — each row appears in exactly
// one cluster, at every threshold.
func TestQuickCutIsPartition(t *testing.T) {
	f := func(seed uint64, thRaw uint8) bool {
		r := rng.New(seed)
		n := 8 + r.Intn(16)
		m := NewSimMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, r.Float64())
			}
		}
		th := float64(thRaw) / 255
		cut := HAC(m, CompleteLinkage).Cut(th)
		seen := make([]bool, n)
		for _, cluster := range cut {
			for _, row := range cluster {
				if row < 0 || row >= n || seen[row] {
					return false
				}
				seen[row] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: cluster count is non-increasing in the threshold.
func TestQuickCutMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 12
		m := NewSimMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, r.Float64())
			}
		}
		dg := HAC(m, AverageLinkage)
		prev := n + 1
		for th := 0.0; th <= 1.0; th += 0.05 {
			k := len(dg.Cut(th))
			if k > prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: interpolating (clean package is tested separately; here the
// detection invariant) — DetectChanges on a constant series never fires.
func TestDetectNeverFiresOnConstantSeries(t *testing.T) {
	s := NewSpace(nets(30))
	var vs []*Vector
	for e := 0; e < 50; e++ {
		v := s.NewVector(timeline.Epoch(e))
		for i := 0; i < 30; i++ {
			v.Set(i, "X")
		}
		vs = append(vs, v)
	}
	ser := NewSeries(s, sched(50), vs, nil)
	if events := DetectChanges(ser, nil, DefaultDetectOptions()); len(events) != 0 {
		t.Fatalf("constant series produced events: %+v", events)
	}
}
