package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

func TestTransitionDiagonalWhenQuiescent(t *testing.T) {
	s := NewSpace(nets(10))
	a := s.NewVector(0)
	for i := 0; i < 10; i++ {
		a.Set(i, "X")
	}
	b := a.Clone()
	tm := Transition(a, b, nil)
	if tm.At("X", "X") != 10 {
		t.Fatalf("diagonal = %v", tm.At("X", "X"))
	}
	if tm.Moved() != 0 {
		t.Fatalf("Moved = %v", tm.Moved())
	}
	if tm.Stayed() != 10 {
		t.Fatalf("Stayed = %v", tm.Stayed())
	}
}

func TestTransitionDrain(t *testing.T) {
	// Table 3 in miniature: STR drains, most clients to NAP, some to err.
	s := NewSpace(nets(100))
	a, b := s.NewVector(0), s.NewVector(1)
	for i := 0; i < 100; i++ {
		switch {
		case i < 60: // STR clients
			a.Set(i, "STR")
			if i < 45 {
				b.Set(i, "NAP")
			} else {
				b.Set(i, SiteError)
			}
		case i < 90: // stable NAP clients
			a.Set(i, "NAP")
			b.Set(i, "NAP")
		default: // stable CMH
			a.Set(i, "CMH")
			b.Set(i, "CMH")
		}
	}
	tm := Transition(a, b, nil)
	if tm.At("STR", "NAP") != 45 {
		t.Errorf("STR->NAP = %v, want 45", tm.At("STR", "NAP"))
	}
	if tm.At("STR", SiteError) != 15 {
		t.Errorf("STR->err = %v, want 15", tm.At("STR", SiteError))
	}
	if tm.At("NAP", "NAP") != 30 || tm.At("CMH", "CMH") != 10 {
		t.Error("stable cells wrong")
	}
	if tm.Moved() != 60 {
		t.Errorf("Moved = %v, want 60", tm.Moved())
	}
	flows := tm.LargestFlows(2)
	if len(flows) != 2 || flows[0].From != "STR" || flows[0].To != "NAP" || flows[0].Count != 45 {
		t.Errorf("LargestFlows = %+v", flows)
	}
	row := tm.Row("STR")
	if row["NAP"] != 45 || row[SiteError] != 15 {
		t.Errorf("Row(STR) = %v", row)
	}
}

func TestTransitionUnknownAxis(t *testing.T) {
	s := NewSpace(nets(4))
	a, b := s.NewVector(0), s.NewVector(1)
	a.Set(0, "A")
	// nets 1-3 unknown at t; net0 goes unknown at t'.
	b.Set(1, "A")
	tm := Transition(a, b, nil)
	if tm.At("A", UnknownLabel) != 1 {
		t.Errorf("A->unknown = %v", tm.At("A", UnknownLabel))
	}
	if tm.At(UnknownLabel, "A") != 1 {
		t.Errorf("unknown->A = %v", tm.At(UnknownLabel, "A"))
	}
	if tm.At(UnknownLabel, UnknownLabel) != 2 {
		t.Errorf("unknown->unknown = %v", tm.At(UnknownLabel, UnknownLabel))
	}
	// Stayed excludes unknown->unknown.
	if tm.Stayed() != 0 {
		t.Errorf("Stayed = %v, want 0", tm.Stayed())
	}
}

// Regression: Moved used to count site→unknown and unknown→site cells as
// churn, so a collection outage inflated movement numbers. Only
// site→site off-diagonal weight is movement; unknown-involved weight is
// Unobserved, and the three accessors partition the total.
func TestTransitionMovedExcludesUnobserved(t *testing.T) {
	s := NewSpace(nets(20))
	a, b := s.NewVector(0), s.NewVector(1)
	for i := 0; i < 5; i++ { // real churn: A -> B
		a.Set(i, "A")
		b.Set(i, "B")
	}
	for i := 5; i < 10; i++ { // collection outage at t': A -> unknown
		a.Set(i, "A")
	}
	for i := 10; i < 15; i++ { // networks appearing: unknown -> B
		b.Set(i, "B")
	}
	// nets 15..19 unknown on both sides.
	tm := Transition(a, b, nil)
	if got := tm.Moved(); got != 5 {
		t.Errorf("Moved = %v, want 5 (outage must not count as churn)", got)
	}
	if got := tm.Unobserved(); got != 15 {
		t.Errorf("Unobserved = %v, want 15", got)
	}
	if got := tm.Stayed(); got != 0 {
		t.Errorf("Stayed = %v, want 0", got)
	}
	if m, st, u, tot := tm.Moved(), tm.Stayed(), tm.Unobserved(), tm.Total(); m+st+u != tot {
		t.Errorf("Moved %v + Stayed %v + Unobserved %v != Total %v", m, st, u, tot)
	}
	// The excluded cells stay retrievable via At/Row.
	if tm.At("A", UnknownLabel) != 5 || tm.At(UnknownLabel, "B") != 5 {
		t.Errorf("unknown-involved cells not retrievable: A->unk=%v unk->B=%v",
			tm.At("A", UnknownLabel), tm.At(UnknownLabel, "B"))
	}
	if row := tm.Row("A"); row[UnknownLabel] != 5 {
		t.Errorf("Row(A)[unknown] = %v, want 5", row[UnknownLabel])
	}
}

func TestTransitionSiteOrdering(t *testing.T) {
	s := NewSpace(nets(4))
	a, b := s.NewVector(0), s.NewVector(1)
	a.Set(0, "ZRH")
	a.Set(1, SiteError)
	a.Set(2, "AMS")
	b.Set(0, SiteOther)
	b.Set(1, "ZRH")
	b.Set(2, "AMS")
	tm := Transition(a, b, nil)
	// Real sites sorted first, then err, other, unknown.
	want := []string{"AMS", "ZRH", SiteError, SiteOther, UnknownLabel}
	if len(tm.Sites) != len(want) {
		t.Fatalf("Sites = %v", tm.Sites)
	}
	for i := range want {
		if tm.Sites[i] != want[i] {
			t.Fatalf("Sites = %v, want %v", tm.Sites, want)
		}
	}
}

func TestTransitionWeighted(t *testing.T) {
	s := NewSpace(nets(2))
	a, b := s.NewVector(0), s.NewVector(1)
	a.Set(0, "A")
	a.Set(1, "A")
	b.Set(0, "B")
	b.Set(1, "A")
	w := []float64{256, 1}
	tm := Transition(a, b, w)
	if tm.At("A", "B") != 256 || tm.At("A", "A") != 1 {
		t.Fatalf("weighted cells: A->B=%v A->A=%v", tm.At("A", "B"), tm.At("A", "A"))
	}
}

func TestTransitionMassConservation(t *testing.T) {
	// Property: total mass equals number of networks, and row sums of the
	// "from" marginal equal the aggregate of vector a.
	r := rng.New(4)
	s := NewSpace(nets(50))
	a, b := s.NewVector(0), s.NewVector(1)
	sites := []string{"A", "B", "C", SiteError}
	for i := 0; i < 50; i++ {
		if !r.Bool(0.1) {
			a.Set(i, sites[r.Intn(len(sites))])
		}
		if !r.Bool(0.1) {
			b.Set(i, sites[r.Intn(len(sites))])
		}
	}
	tm := Transition(a, b, nil)
	var total float64
	for _, from := range tm.Sites {
		for _, to := range tm.Sites {
			total += tm.At(from, to)
		}
	}
	if total != 50 {
		t.Fatalf("total mass = %v, want 50", total)
	}
	agg := a.Aggregate()
	for site, count := range agg {
		var rowSum float64
		for _, v := range tm.Row(site) {
			rowSum += v
		}
		if int(rowSum) != count {
			t.Fatalf("row sum for %s = %v, aggregate %d", site, rowSum, count)
		}
	}
}

func TestTransitionMassesSumInRowOrder(t *testing.T) {
	// With fractional weights float addition depends on its order, so
	// masses summed over the cell map would follow Go's randomized map
	// iteration and change bits from call to call. They must equal the
	// network row-order sums every time.
	const n = 400
	r := rng.New(11)
	s := NewSpace(nets(n))
	a, b := s.NewVector(0), s.NewVector(1)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1000 * r.Float64()
		if !r.Bool(0.1) {
			a.Set(i, fmt.Sprintf("s%02d", r.Intn(23)))
		}
		if !r.Bool(0.1) {
			b.Set(i, fmt.Sprintf("s%02d", r.Intn(29)))
		}
	}
	var want [4]float64 // moved, stayed, unobserved, total
	for i := 0; i < n; i++ {
		sa, oka := a.Site(i)
		sb, okb := b.Site(i)
		switch {
		case !oka || !okb:
			want[2] += w[i]
		case sa == sb:
			want[1] += w[i]
		default:
			want[0] += w[i]
		}
		want[3] += w[i]
	}
	for call := 0; call < 200; call++ {
		tm := Transition(a, b, w)
		got := [4]float64{tm.Moved(), tm.Stayed(), tm.Unobserved(), tm.Total()}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("call %d: masses %v, want row-order sums %v", call, got, want)
			}
		}
	}
}

func TestTransitionPanicsAcrossSpaces(t *testing.T) {
	s1, s2 := NewSpace(nets(2)), NewSpace(nets(2))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-space transition accepted")
		}
	}()
	Transition(s1.NewVector(0), s2.NewVector(0), nil)
}

func TestTransitionPanicsOnWeightLength(t *testing.T) {
	s := NewSpace(nets(3))
	a, b := s.NewVector(0), s.NewVector(1)
	for _, w := range [][]float64{{1, 2, 3, 4, 5}, {1, 2}} {
		func() {
			defer func() {
				want := fmt.Sprintf("core: weight length %d != networks 3", len(w))
				if r := recover(); r != want {
					t.Fatalf("%d weights: recovered %v, want %q", len(w), r, want)
				}
			}()
			Transition(a, b, w)
		}()
	}
}

// refTransitionMatrix is the string-keyed transition matrix Transition
// replaced: every network's sites hashed into label-keyed maps. It is
// kept as the oracle that the index-based build must match bit for bit.
// Its LargestFlows sorts every flow and keeps the first k, the order the
// runtime's bounded insertion must reproduce.
type refTransitionMatrix struct {
	Sites                            []string
	counts                           map[[2]int]float64
	index                            map[string]int
	moved, stayed, unobserved, total float64
}

func refTransition(a, b *Vector, w []float64) *refTransitionMatrix {
	present := make(map[string]bool)
	for _, v := range []*Vector{a, b} {
		for i := 0; i < v.Space.NumNetworks(); i++ {
			if s, ok := v.Site(i); ok {
				present[s] = true
			} else {
				present[UnknownLabel] = true
			}
		}
	}
	var real, special []string
	for s := range present {
		switch s {
		case SiteError, SiteOther, UnknownLabel:
			special = append(special, s)
		default:
			real = append(real, s)
		}
	}
	sort.Strings(real)
	sort.Slice(special, func(i, j int) bool {
		rank := map[string]int{SiteError: 0, SiteOther: 1, UnknownLabel: 2}
		return rank[special[i]] < rank[special[j]]
	})
	labels := append(real, special...)

	tm := &refTransitionMatrix{
		Sites:  labels,
		counts: make(map[[2]int]float64),
		index:  make(map[string]int, len(labels)),
	}
	for i, s := range labels {
		tm.index[s] = i
	}
	label := func(v *Vector, n int) int {
		if s, ok := v.Site(n); ok {
			return tm.index[s]
		}
		return tm.index[UnknownLabel]
	}
	for n := 0; n < a.Space.NumNetworks(); n++ {
		wi := 1.0
		if w != nil {
			wi = w[n]
		}
		tm.counts[[2]int{label(a, n), label(b, n)}] += wi
		tm.total += wi
		switch from, to := a.Get(n), b.Get(n); {
		case from == Unknown || to == Unknown:
			tm.unobserved += wi
		case from == to:
			tm.stayed += wi
		default:
			tm.moved += wi
		}
	}
	return tm
}

func (tm *refTransitionMatrix) At(from, to string) float64 {
	i, okI := tm.index[from]
	j, okJ := tm.index[to]
	if !okI || !okJ {
		return 0
	}
	return tm.counts[[2]int{i, j}]
}

func (tm *refTransitionMatrix) Row(from string) map[string]float64 {
	out := make(map[string]float64)
	i, ok := tm.index[from]
	if !ok {
		return out
	}
	for k, v := range tm.counts {
		if k[0] == i && v != 0 {
			out[tm.Sites[k[1]]] = v
		}
	}
	return out
}

func (tm *refTransitionMatrix) LargestFlows(k int) []Flow {
	var flows []Flow
	for key, v := range tm.counts {
		if key[0] != key[1] && v > 0 {
			flows = append(flows, Flow{From: tm.Sites[key[0]], To: tm.Sites[key[1]], Count: v})
		}
	}
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	if k > 0 && len(flows) > k {
		flows = flows[:k]
	}
	return flows
}

// transitionCase draws trial's vector pair and weights for the oracle
// property. The alphabet mixes real sites with err, other and a real site
// labelled "unknown", interned in a random order, and a few more labels
// are interned in the space but held by neither vector. Some trials have
// one network or all-unknown vectors; most weigh networks fractionally,
// so a cell's sum depends on its addition order.
func transitionCase(r *rng.Source, trial int) (a, b *Vector, w []float64) {
	n := 1 + r.Intn(120)
	if trial%16 == 0 {
		n = 1
	}
	s := NewSpace(nets(n))
	pool := []string{"AMS", "NAP", "STR", "ZRH", "cmh", "", SiteError, SiteOther, UnknownLabel}
	for i := len(pool) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	var alpha []string
	for i, l := range pool {
		if r.Bool(0.3) {
			s.SiteIndex(fmt.Sprintf("idle%d", i)) // interned, never held
		}
		if r.Bool(0.7) {
			s.SiteIndex(l)
			alpha = append(alpha, l)
		}
	}
	unknownP := r.Float64() / 2
	mk := func(t int) *Vector {
		v := s.NewVector(timeline.Epoch(t))
		if len(alpha) == 0 || r.Bool(0.1) {
			return v // all unknown
		}
		for i := 0; i < n; i++ {
			if !r.Bool(unknownP) {
				v.Set(i, alpha[r.Intn(len(alpha))])
			}
		}
		return v
	}
	a, b = mk(0), mk(1)
	switch trial % 4 {
	case 0:
		return a, b, nil
	case 1:
		w = make([]float64, n)
		for i := range w {
			w[i] = float64(r.Intn(3)) // exact, zeros included
		}
	default:
		w = make([]float64, n)
		for i := range w {
			w[i] = 1000 * r.Float64()
		}
	}
	return a, b, w
}

// TestTransitionMatchesStringKeyedOracle checks the index-based build
// against the string-keyed refTransition bit for bit: the axis, every
// cell (absent and idle labels included), every row, the four masses and
// the largest flows at several k.
func TestTransitionMatchesStringKeyedOracle(t *testing.T) {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	r := rng.New(23)
	for trial := 0; trial < 400; trial++ {
		a, b, w := transitionCase(r, trial)
		got, want := Transition(a, b, w), refTransition(a, b, w)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (%d networks, weights %v): %s", trial, a.Space.NumNetworks(), w != nil, fmt.Sprintf(format, args...))
		}
		if !slices.Equal(got.Sites, want.Sites) || (got.Sites == nil) != (want.Sites == nil) {
			fail("Sites %q, want %q", got.Sites, want.Sites)
		}
		gm := [4]float64{got.Moved(), got.Stayed(), got.Unobserved(), got.Total()}
		wm := [4]float64{want.moved, want.stayed, want.unobserved, want.total}
		for i := range gm {
			if !same(gm[i], wm[i]) {
				fail("masses %v, want %v", gm, wm)
			}
		}
		labels := append(a.Space.Sites(), UnknownLabel, "absent")
		for _, from := range labels {
			for _, to := range labels {
				if gv, wv := got.At(from, to), want.At(from, to); !same(gv, wv) {
					fail("At(%q, %q) = %v, want %v", from, to, gv, wv)
				}
			}
			if gv, wv := got.Row(from), want.Row(from); !maps.EqualFunc(gv, wv, same) {
				fail("Row(%q) = %v, want %v", from, gv, wv)
			}
		}
		sameFlow := func(x, y Flow) bool { return x.From == y.From && x.To == y.To && same(x.Count, y.Count) }
		for _, k := range []int{0, 1, 5, len(want.counts) + 1} {
			if gv, wv := got.LargestFlows(k), want.LargestFlows(k); !slices.EqualFunc(gv, wv, sameFlow) {
				fail("LargestFlows(%d) = %v, want %v", k, gv, wv)
			}
		}
	}
}

// TestExplanationContributorsMatchSortedOracle checks newExplanation's
// bounded top-k against the selection it replaced: every changed row,
// stable-sorted by weight descending with ties in row order, cut to
// explainTopContributors. Integer weights make ties common.
func TestExplanationContributorsMatchSortedOracle(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 400; trial++ {
		a, b, w := transitionCase(r, trial)
		var want []Contributor
		for n := 0; n < a.Space.NumNetworks(); n++ {
			if a.Get(n) == b.Get(n) {
				continue
			}
			wi := 1.0
			if w != nil {
				wi = w[n]
			}
			want = append(want, Contributor{Network: a.Space.Network(n), From: siteLabel(a, n), To: siteLabel(b, n), Weight: wi})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Weight > want[j].Weight })
		if len(want) > explainTopContributors {
			want = want[:explainTopContributors]
		}
		got := newExplanation(a, b, w, verdict{}).Contributors
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("trial %d (%d networks, weights %v): contributors %v, want %v",
				trial, a.Space.NumNetworks(), w != nil, got, want)
		}
	}
}

// TestTransitionConcurrentWithInterning builds transition matrices and
// explained event lists while another goroutine interns new labels into
// the same space and appends vectors that hold them, as the daemon's
// ingest handlers do beside its query handlers. Run under -race.
func TestTransitionConcurrentWithInterning(t *testing.T) {
	const n = 64
	s := NewSpace(nets(n))
	r := rng.New(5)
	mon := NewMonitor(s, sched(1<<20), nil, PessimisticUnknown, DefaultDetectOptions())
	vec := func(e int, sites []string) *Vector {
		v := s.NewVector(timeline.Epoch(e))
		for i := 0; i < n; i++ {
			if !r.Bool(0.2) {
				v.Set(i, sites[(e/8+i%2)%len(sites)])
			}
		}
		return v
	}
	base := []string{"A", "B", "C", SiteError}
	var vs []*Vector
	for e := 0; e < 40; e++ {
		v := vec(e, base)
		vs = append(vs, v)
		if _, _, err := mon.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := 40; e < 240; e++ {
			sites := append(base[:len(base):len(base)], fmt.Sprintf("new%03d", e))
			if _, _, err := mon.Append(vec(e, sites)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		a, b := vs[i%len(vs)], vs[(i+8)%len(vs)]
		if tm := Transition(a, b, nil); tm.Total() != n {
			t.Fatalf("Total %v, want %d", tm.Total(), n)
		}
		for _, ev := range mon.Events(3, true) {
			if ev.Explanation == nil {
				t.Fatal("explained event without an Explanation")
			}
		}
	}
	wg.Wait()
}
