package core

import (
	"math"
	"testing"

	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// blockMatrix builds a similarity matrix with perfect blocks: rows in the
// same group have Φ=inPhi, cross-group pairs Φ=outPhi.
func blockMatrix(groups [][]int, n int, inPhi, outPhi float64) *SimMatrix {
	m := NewSimMatrix(n)
	group := make([]int, n)
	for gi, g := range groups {
		for _, r := range g {
			group[r] = gi
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if group[i] == group[j] {
				m.Set(i, j, inPhi)
			} else {
				m.Set(i, j, outPhi)
			}
		}
	}
	return m
}

func sameClusters(got [][]int, want [][]int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

func TestHACRecoversBlocks(t *testing.T) {
	groups := [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7, 8}}
	m := blockMatrix(groups, 9, 0.9, 0.1)
	for _, link := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage} {
		dg := HAC(m, link)
		if len(dg.Merges) != 8 {
			t.Fatalf("%v: %d merges, want 8", link, len(dg.Merges))
		}
		cut := dg.Cut(0.5)
		if !sameClusters(cut, groups) {
			t.Fatalf("%v: cut = %v, want %v", link, cut, groups)
		}
	}
}

func TestCutExtremes(t *testing.T) {
	m := blockMatrix([][]int{{0, 1}, {2, 3}}, 4, 0.9, 0.1)
	dg := HAC(m, AverageLinkage)
	if got := dg.Cut(0.0); len(got) != 4 {
		t.Fatalf("cut(0) = %v, want singletons", got)
	}
	if got := dg.Cut(1.0); len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("cut(1) = %v, want one cluster", got)
	}
}

func TestCutZeroDistanceIdenticalVectors(t *testing.T) {
	// Identical vectors have distance 0 and must cluster even at
	// threshold 0.
	m := blockMatrix([][]int{{0, 1, 2}, {3}}, 4, 1.0, 0.2)
	dg := HAC(m, AverageLinkage)
	got := dg.Cut(0.0)
	if len(got) != 2 || len(got[0]) != 3 {
		t.Fatalf("cut(0) with identical vectors = %v", got)
	}
}

func TestLinkagesDifferOnChain(t *testing.T) {
	// A chain 0-1-2-3 with adjacent Φ=0.8, distant pairs Φ declining:
	// single linkage chains everything at threshold 0.25; complete does
	// not.
	m := NewSimMatrix(4)
	m.Set(0, 1, 0.8)
	m.Set(1, 2, 0.8)
	m.Set(2, 3, 0.8)
	m.Set(0, 2, 0.4)
	m.Set(1, 3, 0.4)
	m.Set(0, 3, 0.1)
	single := HAC(m, SingleLinkage).Cut(0.25)
	if len(single) != 1 {
		t.Fatalf("single linkage cut = %v, want one chain cluster", single)
	}
	complete := HAC(m, CompleteLinkage).Cut(0.25)
	if len(complete) == 1 {
		t.Fatalf("complete linkage merged the full chain at 0.25: %v", complete)
	}
}

func TestHACMatchesNaiveAgglomeration(t *testing.T) {
	// Cross-check NN-chain against a naive O(N^3) implementation on
	// random matrices, for every linkage, comparing cut results at
	// several thresholds.
	for _, linkage := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed)
			n := 12
			m := NewSimMatrix(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					m.Set(i, j, r.Float64())
				}
			}
			fast := HAC(m, linkage)
			slow := naiveHAC(m, linkage)
			for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
				a := fast.Cut(th)
				b := slow.Cut(th)
				if !sameClusters(a, b) {
					t.Fatalf("%v seed %d threshold %v: nn-chain %v != naive %v", linkage, seed, th, a, b)
				}
			}
		}
	}
}

// naiveHAC is a reference O(N^3) implementation: merge the closest
// active pair, then apply the linkage's Lance–Williams update.
func naiveHAC(m *SimMatrix, linkage Linkage) *Dendrogram {
	n := m.N
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				d[i][j] = 1 - m.At(i, j)
			}
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	id := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
		id[i] = i
	}
	dg := &Dendrogram{N: n}
	next := n
	for remaining := n; remaining > 1; remaining-- {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if d[i][j] < bd {
					bi, bj, bd = i, j, d[i][j]
				}
			}
		}
		dg.Merges = append(dg.Merges, Merge{A: id[bi], B: id[bj], Height: bd})
		ni, nj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			var nd float64
			switch linkage {
			case SingleLinkage:
				nd = math.Min(d[bi][k], d[bj][k])
			case CompleteLinkage:
				nd = math.Max(d[bi][k], d[bj][k])
			default:
				nd = (ni*d[bi][k] + nj*d[bj][k]) / (ni + nj)
			}
			d[bi][k], d[k][bi] = nd, nd
		}
		size[bi] += size[bj]
		active[bj] = false
		id[bi] = next
		next++
	}
	return dg
}

func TestClusterAdaptiveFindsBlocks(t *testing.T) {
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8}}
	m := blockMatrix(groups, 9, 0.85, 0.2)
	th, clusters := ClusterAdaptive(m, DefaultAdaptiveOptions())
	if !sameClusters(clusters, groups) {
		t.Fatalf("adaptive clusters = %v (threshold %v)", clusters, th)
	}
	if th > 0.5 {
		t.Fatalf("threshold %v unexpectedly high", th)
	}
}

func TestClusterAdaptiveManyModesStaysUnderCap(t *testing.T) {
	// 30 groups of 2 with moderate internal similarity: the adaptive rule
	// must keep raising the threshold until <15 clusters remain.
	var groups [][]int
	for i := 0; i < 30; i++ {
		groups = append(groups, []int{2 * i, 2*i + 1})
	}
	// Give cross-group similarity a gradient so merging order is defined.
	n := 60
	m := NewSimMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i/2 == j/2 {
				m.Set(i, j, 0.95)
			} else {
				// Closer group indexes are more similar.
				gap := float64(j/2 - i/2)
				m.Set(i, j, 0.7-0.02*gap)
			}
		}
	}
	opts := DefaultAdaptiveOptions()
	_, clusters := ClusterAdaptive(m, opts)
	if len(clusters) >= opts.MaxClusters {
		t.Fatalf("%d clusters, want < %d", len(clusters), opts.MaxClusters)
	}
	if len(clusters) < 1 {
		t.Fatal("no clusters")
	}
}

func TestDiscoverModes(t *testing.T) {
	// Epochs 0-4 mode A, 5-9 mode B, 10-12 mode A again (recurrence).
	s := NewSpace(nets(40))
	var vs []*Vector
	assign := func(v *Vector, site string) {
		for i := 0; i < 40; i++ {
			v.Set(i, site)
		}
	}
	for e := 0; e < 13; e++ {
		v := s.NewVector(timeline.Epoch(e))
		switch {
		case e < 5:
			assign(v, "A")
		case e < 10:
			assign(v, "B")
		default:
			assign(v, "A")
		}
		vs = append(vs, v)
	}
	ser := NewSeries(s, sched(13), vs, nil)
	m := SimilarityMatrix(ser, nil, PessimisticUnknown)
	res := DiscoverModes(m, DefaultAdaptiveOptions())
	if len(res.Modes) != 2 {
		t.Fatalf("%d modes, want 2", len(res.Modes))
	}
	a := res.Modes[0]
	if len(a.Ranges) != 2 {
		t.Fatalf("mode A ranges = %v, want recurrence (2 ranges)", a.Ranges)
	}
	if a.Ranges[0] != (timeline.Range{From: 0, To: 5}) || a.Ranges[1] != (timeline.Range{From: 10, To: 13}) {
		t.Fatalf("mode A ranges = %v", a.Ranges)
	}
	if a.InternalLo != 1 || a.InternalHi != 1 {
		t.Fatalf("mode A internal Φ = [%v,%v]", a.InternalLo, a.InternalHi)
	}
	lo, hi := res.CrossPhi(res.Modes[0], res.Modes[1])
	if lo != 0 || hi != 0 {
		t.Fatalf("cross Φ = [%v,%v]", lo, hi)
	}
	rec := res.Recurrences()
	if len(rec) != 1 || rec[0].ID != a.ID {
		t.Fatalf("Recurrences = %v", rec)
	}
	if res.ModeOf(11) == nil || res.ModeOf(11).ID != a.ID {
		t.Fatal("ModeOf broken")
	}
}

func TestDiscoverModesNoisy(t *testing.T) {
	// Noisy version: 10% of networks differ within a mode; modes still
	// separate because cross-mode similarity is far lower.
	r := rng.New(77)
	s := NewSpace(nets(200))
	var vs []*Vector
	for e := 0; e < 30; e++ {
		v := s.NewVector(timeline.Epoch(e))
		base := "A"
		if e >= 15 {
			base = "B"
		}
		for i := 0; i < 200; i++ {
			if r.Bool(0.1) {
				v.Set(i, "C") // noise
			} else {
				v.Set(i, base)
			}
		}
		vs = append(vs, v)
	}
	ser := NewSeries(s, sched(30), vs, nil)
	m := SimilarityMatrix(ser, nil, PessimisticUnknown)
	res := DiscoverModes(m, DefaultAdaptiveOptions())
	// The two halves must land in different modes.
	m0 := res.ModeOf(0)
	m29 := res.ModeOf(29)
	if m0 == nil || m29 == nil || m0.ID == m29.ID {
		t.Fatalf("noisy modes not separated: %v vs %v", m0, m29)
	}
	if res.ModeOf(0).ID != res.ModeOf(14).ID {
		t.Fatal("within-mode epochs split")
	}
}

func BenchmarkHAC500(b *testing.B) {
	r := rng.New(9)
	m := NewSimMatrix(500)
	for i := 0; i < 500; i++ {
		for j := i + 1; j < 500; j++ {
			m.Set(i, j, r.Float64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HAC(m, AverageLinkage)
	}
}

// TestClusterAdaptiveNominalThresholds pins the float-drift fix in the
// threshold sweep: thresholds must be the nominal grid points i·Step,
// not an accumulated t += Step sum. The fixture's single-linkage A–B
// merge height is exactly 0.5 + 2⁻⁵³ — just above the nominal grid
// point 0.50 (float64(50)*0.01 == 0.5 exactly) but below the
// accumulated sum after fifty additions of 0.01 (≈ 0.5 + 2.2e-16) —
// so the drifting sweep merged A and B one step early and reported the
// drifted threshold 0.50000000000000022, while the nominal sweep first
// sees the merged clustering at exactly 0.51.
func TestClusterAdaptiveNominalThresholds(t *testing.T) {
	hStar := 0.5 + 0x1p-53
	m := NewSimMatrix(8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			switch {
			case j <= 2: // within A = {0,1,2}
				m.Set(i, j, 0.995)
			case i >= 3 && j <= 5: // within B = {3,4,5}
				m.Set(i, j, 0.995)
			case i <= 2 && j <= 5: // A×B cross pairs
				m.Set(i, j, 0.2)
			default: // pairs touching the singletons 6, 7
				m.Set(i, j, 0.05)
			}
		}
	}
	// Closest A–B pair: Φ = 1 − hStar is exact (Sterbenz), and the
	// sweep's d = 1 − Φ recovers exactly hStar as the merge height.
	m.Set(2, 3, 1-hStar)

	opts := AdaptiveOptions{MaxClusters: 4, MinMembers: 2, Step: 0.01, Linkage: SingleLinkage}
	threshold, clusters := ClusterAdaptive(m, opts)
	if threshold != 0.51 {
		t.Fatalf("threshold = %.20g, want the nominal grid point 0.51", threshold)
	}
	want := [][]int{{0, 1, 2, 3, 4, 5}, {6}, {7}}
	if !sameClusters(clusters, want) {
		t.Fatalf("clusters = %v, want %v", clusters, want)
	}
}
