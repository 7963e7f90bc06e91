package core

import (
	"fmt"
	"math"
	"testing"

	"fenrir/internal/rng"
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
