package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"fenrir/internal/obs"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// This file pins the parallel similarity engine and the incremental
// adaptive-threshold sweep to the pre-optimization reference semantics:
// naiveGower/naiveSimilarityMatrix and naiveClusterAdaptive are verbatim
// transcriptions of the original single-threaded implementations, and
// every optimized path must be bit-identical to them.

func naiveGower(a, b *Vector, w []float64, mode UnknownMode) float64 {
	var match, total float64
	for i := range a.assign {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		x, y := a.assign[i], b.assign[i]
		switch mode {
		case PessimisticUnknown:
			total += wi
			if x != Unknown && x == y {
				match += wi
			}
		case KnownOnly:
			if x == Unknown || y == Unknown {
				continue
			}
			total += wi
			if x == y {
				match += wi
			}
		}
	}
	if total == 0 {
		return 0
	}
	return match / total
}

func naiveSimilarityMatrix(s *Series, w []float64, mode UnknownMode) *SimMatrix {
	n := len(s.Vectors)
	m := NewSimMatrix(n)
	for i, v := range s.Vectors {
		m.Epochs[i] = int(v.T)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, naiveGower(s.Vectors[i], s.Vectors[j], w, mode))
		}
	}
	return m
}

// sameMatrix reports whether a and b cover the same epochs with
// bit-identical Φ. Matrices are compared by value, not with
// reflect.DeepEqual: a restored monitor's empty row 0 is nil where an
// appended one is not.
func sameMatrix(a, b *SimMatrix) bool {
	if a.N != b.N || !slices.Equal(a.Epochs, b.Epochs) {
		return false
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < i; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// sameModes reports whether two mode results are identical: the exact
// threshold, the modes field for field, and their matrices by value.
func sameModes(a, b *ModesResult) bool {
	return math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		reflect.DeepEqual(a.Modes, b.Modes) && sameMatrix(a.Matrix, b.Matrix)
}

// naiveClusterAdaptive is the original sweep: a from-scratch Cut at each
// of the ~101 thresholds.
func naiveClusterAdaptive(m *SimMatrix, opts AdaptiveOptions) (float64, [][]int) {
	if opts.MaxClusters <= 0 {
		opts.MaxClusters = 15
	}
	if opts.MinMembers <= 0 {
		opts.MinMembers = 2
	}
	if opts.Step <= 0 {
		opts.Step = 0.01
	}
	dg := HAC(m, opts.Linkage)
	admissible := func(cut [][]int) bool {
		if len(cut) >= opts.MaxClusters {
			return false
		}
		for _, c := range cut {
			if len(c) >= opts.MinMembers {
				return true
			}
		}
		return false
	}
	const minPlateau = 3
	type run struct {
		start float64
		count int
		len   int
	}
	var first, longest, cur run
	// Nominal grid thresholds, mirroring the drift fix in the real sweep.
	for i := 0; ; i++ {
		t := float64(i) * opts.Step
		if t > 1.0+1e-9 {
			break
		}
		cut := dg.Cut(t)
		if !admissible(cut) {
			cur = run{}
			continue
		}
		if cur.len > 0 && cur.count == len(cut) {
			cur.len++
		} else {
			cur = run{start: t, count: len(cut), len: 1}
		}
		if cur.len >= minPlateau && first.len == 0 {
			first = cur
		}
		if cur.len > longest.len {
			longest = cur
		}
	}
	switch {
	case first.len > 0:
		return first.start, dg.Cut(first.start)
	case longest.len > 0:
		return longest.start, dg.Cut(longest.start)
	default:
		return 1.0, dg.Cut(1.0)
	}
}

// randomSeries builds a series with structured modes plus noise and the
// given unknown fraction, deterministic in seed.
func randomSeries(t testing.TB, epochs, networks int, unknownFrac float64, seed uint64) *Series {
	t.Helper()
	r := rng.New(seed)
	ids := make([]string, networks)
	for i := range ids {
		ids[i] = fmt.Sprintf("net%04d", i)
	}
	space := NewSpace(ids)
	sites := []string{"A", "B", "C", "D"}
	vs := make([]*Vector, 0, epochs)
	for e := 0; e < epochs; e++ {
		v := space.NewVector(timeline.Epoch(e))
		base := sites[(e/5)%len(sites)]
		for i := 0; i < networks; i++ {
			if r.Bool(unknownFrac) {
				continue
			}
			if r.Bool(0.15) {
				v.Set(i, sites[r.Intn(len(sites))])
			} else {
				v.Set(i, base)
			}
		}
		vs = append(vs, v)
	}
	return NewSeries(space, sched(epochs), vs, nil)
}

func randomWeights(networks int, seed uint64) []float64 {
	r := rng.New(seed)
	w := make([]float64, networks)
	for i := range w {
		w[i] = 0.25 + 4*r.Float64()
	}
	return w
}

// TestSimilarityMatrixParallelEquivalence asserts every (parallelism ×
// mode × weighting) combination reproduces the naive serial matrix bit
// for bit.
func TestSimilarityMatrixParallelEquivalence(t *testing.T) {
	shapes := []struct{ epochs, networks int }{{1, 17}, {7, 33}, {23, 64}, {60, 40}}
	for _, seed := range []uint64{1, 2, 3} {
		for _, shape := range shapes {
			s := randomSeries(t, shape.epochs, shape.networks, 0.35, seed)
			weights := [][]float64{nil, randomWeights(shape.networks, seed+100)}
			for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
				for wi, w := range weights {
					ref := naiveSimilarityMatrix(s, w, mode)
					for _, p := range []int{1, 2, 8, 0} {
						got := SimilarityMatrixParallel(s, w, mode, MatrixOptions{Parallelism: p})
						if got.N != ref.N || !reflect.DeepEqual(got.Epochs, ref.Epochs) {
							t.Fatalf("seed=%d shape=%v mode=%v w=%d P=%d: header mismatch", seed, shape, mode, wi, p)
						}
						for i := 0; i < ref.N; i++ {
							for j := 0; j < ref.N; j++ {
								if got.At(i, j) != ref.At(i, j) {
									t.Fatalf("seed=%d shape=%v mode=%v w=%d P=%d: Φ(%d,%d) = %v, reference %v",
										seed, shape, mode, wi, p, i, j, got.At(i, j), ref.At(i, j))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSimilarityMatrixInstrumentedEquivalence asserts that attaching an
// obs registry changes nothing about the output — the nil-registry
// no-op contract's other half — while the engine metrics come out
// exact: every off-diagonal pair counted once, and tile timings
// covering the whole fill.
func TestSimilarityMatrixInstrumentedEquivalence(t *testing.T) {
	s := randomSeries(t, 40, 50, 0.3, 11)
	ref := naiveSimilarityMatrix(s, nil, PessimisticUnknown)
	for _, p := range []int{1, 4} {
		reg := obs.NewRegistry()
		got := SimilarityMatrixParallel(s, nil, PessimisticUnknown, MatrixOptions{Parallelism: p, Obs: reg})
		for i := 0; i < ref.N; i++ {
			for j := 0; j < ref.N; j++ {
				if got.At(i, j) != ref.At(i, j) {
					t.Fatalf("P=%d instrumented: Φ(%d,%d) = %v, reference %v", p, i, j, got.At(i, j), ref.At(i, j))
				}
			}
		}
		wantPairs := int64(ref.N * (ref.N - 1) / 2)
		if pairs := reg.Counter("fenrir_similarity_pairs_total").Value(); pairs != wantPairs {
			t.Fatalf("P=%d: pairs counter = %d, want %d", p, pairs, wantPairs)
		}
		if reg.Histogram("fenrir_similarity_tile_seconds").Count() == 0 {
			t.Fatalf("P=%d: no tile timings recorded", p)
		}
		if w := reg.Gauge("fenrir_similarity_workers").Value(); w != float64(p) {
			t.Fatalf("P=%d: workers gauge = %v", p, w)
		}
		if r, want := reg.Gauge("fenrir_similarity_tile_rows").Value(), float64(ref.N)/float64(len(balancedTriangleTiles(ref.N, p))); r != want {
			t.Fatalf("P=%d: tile-rows gauge = %v, want %v", p, r, want)
		}
	}
}

// TestClusterAdaptiveInstrumentedEquivalence asserts the sweep returns
// the identical cut with a registry attached and records its stats.
func TestClusterAdaptiveInstrumentedEquivalence(t *testing.T) {
	s := randomSeries(t, 50, 40, 0.3, 12)
	m := SimilarityMatrix(s, nil, PessimisticUnknown)
	opts := DefaultAdaptiveOptions()
	refTh, refCl := ClusterAdaptive(m, opts)
	reg := obs.NewRegistry()
	opts.Obs = reg
	gotTh, gotCl := ClusterAdaptive(m, opts)
	if gotTh != refTh || !reflect.DeepEqual(gotCl, refCl) {
		t.Fatalf("instrumented sweep diverged: threshold %v vs %v", gotTh, refTh)
	}
	if reg.Counter("fenrir_cluster_merges_scanned_total").Value() <= 0 {
		t.Fatal("merges-scanned counter not fed")
	}
	if got := reg.Gauge("fenrir_cluster_threshold").Value(); got != refTh {
		t.Fatalf("threshold gauge = %v, want %v", got, refTh)
	}
	if got := reg.Gauge("fenrir_cluster_count").Value(); got != float64(len(refCl)) {
		t.Fatalf("cluster-count gauge = %v, want %d", got, len(refCl))
	}
	if reg.Histogram("fenrir_cluster_sweep_clusters").Count() == 0 {
		t.Fatal("sweep histogram not fed")
	}
}

// TestSimilarityMatrixTileSizes drives the balanced tile shapes of
// several lane counts through the parallel fill, down to one tile per
// row (P equal to the row count) and a P the engine clamps to it.
func TestSimilarityMatrixTileSizes(t *testing.T) {
	s := randomSeries(t, 31, 40, 0.3, 9)
	ref := naiveSimilarityMatrix(s, nil, PessimisticUnknown)
	for _, p := range []int{2, 3, 5, 31, 100} {
		got := SimilarityMatrixParallel(s, nil, PessimisticUnknown, MatrixOptions{Parallelism: p})
		for i := 0; i < ref.N; i++ {
			for j := 0; j < ref.N; j++ {
				if got.At(i, j) != ref.At(i, j) {
					t.Fatalf("P=%d: Φ(%d,%d) = %v, reference %v", p, i, j, got.At(i, j), ref.At(i, j))
				}
			}
		}
	}
}

// TestGowerMatchesNaive pins the scalar Gower loop to the original
// per-element switch across random vectors.
func TestGowerMatchesNaive(t *testing.T) {
	for _, seed := range []uint64{4, 5, 6} {
		s := randomSeries(t, 6, 50, 0.4, seed)
		w := randomWeights(50, seed)
		for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
			for i := 0; i < s.Len(); i++ {
				for j := 0; j < s.Len(); j++ {
					a, b := s.Vectors[i], s.Vectors[j]
					if got, want := Gower(a, b, nil, mode), naiveGower(a, b, nil, mode); got != want {
						t.Fatalf("uniform %v: Φ = %v, naive %v", mode, got, want)
					}
					if got, want := Gower(a, b, w, mode), naiveGower(a, b, w, mode); got != want {
						t.Fatalf("weighted %v: Φ = %v, naive %v", mode, got, want)
					}
				}
			}
		}
	}
}

// TestClusterAdaptiveIncrementalEquivalence asserts the single-pass
// sorted-merge sweep returns the identical (threshold, clusters) as the
// original 101×Cut implementation across linkages, step sizes, and
// admissibility knobs.
func TestClusterAdaptiveIncrementalEquivalence(t *testing.T) {
	var cases []AdaptiveOptions
	for _, linkage := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		for _, step := range []float64{0.01, 0.005, 0.07} {
			cases = append(cases, AdaptiveOptions{Step: step, Linkage: linkage})
		}
	}
	cases = append(cases,
		AdaptiveOptions{MaxClusters: 3, MinMembers: 5, Step: 0.01},
		AdaptiveOptions{MaxClusters: 100, MinMembers: 1, Step: 0.02},
	)
	for _, seed := range []uint64{7, 8, 9} {
		for _, shape := range []struct{ epochs, networks int }{{1, 10}, {12, 30}, {45, 25}} {
			s := randomSeries(t, shape.epochs, shape.networks, 0.3, seed)
			m := SimilarityMatrix(s, nil, PessimisticUnknown)
			for _, opts := range cases {
				wantT, wantC := naiveClusterAdaptive(m, opts)
				gotT, gotC := ClusterAdaptive(m, opts)
				if gotT != wantT {
					t.Fatalf("seed=%d shape=%v opts=%+v: threshold %v, reference %v", seed, shape, opts, gotT, wantT)
				}
				if !reflect.DeepEqual(gotC, wantC) {
					t.Fatalf("seed=%d shape=%v opts=%+v: clusters %v, reference %v", seed, shape, opts, gotC, wantC)
				}
			}
		}
	}
}

// wideSeries is randomSeries over a large site alphabet: four regimes
// rotate every 5 epochs, each giving every network its own site, with
// 15% noise. The first half of the series draws only from sites 0–2, so
// its rows pack to 2 planes while the second half's need up to
// bits.Len(sites-1): a monitor then compares rows of unequal plane
// counts, and the matrix slab packs every row at the larger count.
func wideSeries(t testing.TB, epochs, networks, sites int, unknownFrac float64, seed uint64) *Series {
	t.Helper()
	r := rng.New(seed)
	space := NewSpace(nets(networks))
	internSites(space, sites)
	vs := make([]*Vector, 0, epochs)
	for e := 0; e < epochs; e++ {
		limit := 3
		if e >= epochs/2 {
			limit = sites
		}
		regime := (e / 5) % 4
		v := space.NewVector(timeline.Epoch(e))
		for i := 0; i < networks; i++ {
			if r.Bool(unknownFrac) {
				continue
			}
			site := (i*31 + regime*97) % limit
			if r.Bool(0.15) {
				site = r.Intn(limit)
			}
			v.SetIndex(i, int32(site))
		}
		vs = append(vs, v)
	}
	return NewSeries(space, sched(epochs), vs, nil)
}

// TestSimilarityMatrixAlphabetEquivalence pins the packed matrix engine
// to the naive reference across site alphabets of 4, 128 and 300 sites
// (2 to 9 planes, rows of one series needing different counts),
// parallelism levels, both UnknownModes, nil/random weights, and shapes
// straddling the 64-bit word boundary.
func TestSimilarityMatrixAlphabetEquivalence(t *testing.T) {
	shapes := []struct{ epochs, networks int }{{9, 65}, {20, 64}, {33, 127}, {17, 40}}
	for _, seed := range []uint64{21, 22} {
		for _, sites := range []int{4, 128, 300} {
			for _, shape := range shapes {
				s := wideSeries(t, shape.epochs, shape.networks, sites, 0.3, seed)
				weights := [][]float64{nil, randomWeights(shape.networks, seed+300)}
				for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
					for wi, w := range weights {
						ref := naiveSimilarityMatrix(s, w, mode)
						for _, p := range []int{1, 2, 8, 0} {
							got := SimilarityMatrixParallel(s, w, mode, MatrixOptions{Parallelism: p})
							for i := 0; i < ref.N; i++ {
								for j := 0; j < ref.N; j++ {
									if got.At(i, j) != ref.At(i, j) {
										t.Fatalf("seed=%d sites=%d shape=%v mode=%v w=%d P=%d: Φ(%d,%d) = %v, reference %v",
											seed, sites, shape, mode, wi, p, i, j, got.At(i, j), ref.At(i, j))
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSimilarityMatrixMixedSpacePanics pins the mixed-space guard: a
// hand-assembled series whose vectors disagree on Space must panic at
// matrix construction with a message naming the offending vector.
func TestSimilarityMatrixMixedSpacePanics(t *testing.T) {
	s1, s2 := NewSpace(nets(4)), NewSpace(nets(4))
	v1, v2 := s1.NewVector(0), s2.NewVector(1)
	mixed := &Series{Space: s1, Schedule: sched(2), Vectors: []*Vector{v1, v2}}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mixed-space series accepted")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		want := "core: SimilarityMatrix: vector 1 (epoch 1) belongs to a different Space than its series"
		if msg != want {
			t.Fatalf("panic %q, want %q", msg, want)
		}
	}()
	SimilarityMatrix(mixed, nil, PessimisticUnknown)
}

// TestSimilarityMatrixParallelBadWeightsPanics mirrors Gower's weight
// length check at matrix construction.
func TestSimilarityMatrixParallelBadWeightsPanics(t *testing.T) {
	s := randomSeries(t, 3, 10, 0.2, 11)
	defer func() {
		if recover() == nil {
			t.Fatal("short weight slice accepted")
		}
	}()
	SimilarityMatrixParallel(s, []float64{1, 2}, PessimisticUnknown, MatrixOptions{})
}

// TestSimilarityMatrixEmptySeries covers the zero-vector edge of the
// worker-pool path.
func TestSimilarityMatrixEmptySeries(t *testing.T) {
	space := NewSpace(nets(3))
	s := NewSeries(space, sched(1), nil, nil)
	m := SimilarityMatrixParallel(s, nil, PessimisticUnknown, MatrixOptions{})
	if m.N != 0 {
		t.Fatalf("N = %d, want 0", m.N)
	}
}

// TestPhiRangeOK pins the no-pairs sentinel and its disambiguation.
func TestPhiRangeOK(t *testing.T) {
	m := NewSimMatrix(3)
	m.Set(0, 1, 0.0) // a genuine Φ of zero
	m.Set(0, 2, 0.4)
	m.Set(1, 2, 0.6)

	if lo, hi, ok := m.PhiRangeOK([]int{0}, []int{1}); !ok || lo != 0 || hi != 0 {
		t.Fatalf("real zero interval: (%v,%v,%v), want (0,0,true)", lo, hi, ok)
	}
	// No pairs: empty set, and same-singleton (diagonal only). Both yield
	// the (0,0) sentinel from PhiRange but ok=false here.
	for _, tc := range [][2][]int{{{}, {1, 2}}, {{0}, {0}}, {nil, nil}} {
		lo, hi, ok := m.PhiRangeOK(tc[0], tc[1])
		if ok || lo != 0 || hi != 0 {
			t.Fatalf("PhiRangeOK(%v,%v) = (%v,%v,%v), want (0,0,false)", tc[0], tc[1], lo, hi, ok)
		}
		if lo, hi := m.PhiRange(tc[0], tc[1]); lo != 0 || hi != 0 {
			t.Fatalf("PhiRange(%v,%v) sentinel = (%v,%v), want (0,0)", tc[0], tc[1], lo, hi)
		}
	}
	if lo, hi, ok := m.PhiRangeOK([]int{0, 1}, []int{2}); !ok || math.Abs(lo-0.4) > 1e-15 || math.Abs(hi-0.6) > 1e-15 {
		t.Fatalf("PhiRangeOK = (%v,%v,%v), want (0.4,0.6,true)", lo, hi, ok)
	}
}

// TestExplanationKernelEquivalence pins detection provenance across the
// two Φ paths: batch DetectChanges computes adjacent similarities with
// the scalar Gower loop, the streaming Monitor with the packed kernels
// (rows of unequal plane counts on the wide-alphabet fixture), and both
// must fire identical event lists over the same series — DeepEqual
// follows the Explanation pointer, so contributors, flows, mass splits,
// and recurrence verdicts are compared field for field. The monitor's Φ
// history must equal the batch matrix at every parallelism too. Each
// fixture's regime rotation revisits earlier states, so the asserted
// stream contains both recurrence and novel verdicts; a fixture that
// fired only one kind (or nothing) fails as vacuous.
func TestExplanationKernelEquivalence(t *testing.T) {
	for _, seed := range []uint64{51, 52} {
		for _, s := range []*Series{randomSeries(t, 60, 70, 0.2, seed), wideSeries(t, 60, 70, 300, 0.2, seed)} {
			weights := [][]float64{nil, randomWeights(70, seed+7)}
			for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
				opts := DetectOptions{Window: 10, MinDrop: 0.1, Mode: mode, Cooldown: 2}
				for wi, w := range weights {
					batch := DetectChanges(s, w, opts)
					mon := NewMonitor(s.Space, s.Schedule, w, mode, opts)
					var stream []ChangeEvent
					for _, v := range s.Vectors {
						ev, ok, err := mon.Append(v)
						if err != nil {
							t.Fatalf("seed=%d: append epoch %d: %v", seed, v.T, err)
						}
						if ok {
							stream = append(stream, ev)
						}
					}
					if !reflect.DeepEqual(stream, batch) {
						t.Fatalf("seed=%d sites=%d mode=%v w=%d: stream events diverge from batch\nstream: %+v\nbatch:  %+v",
							seed, s.Space.NumSites(), mode, wi, stream, batch)
					}
					live := mon.Matrix()
					for _, p := range []int{1, 3, 0} {
						m := SimilarityMatrixParallel(s, w, mode, MatrixOptions{Parallelism: p})
						if !sameMatrix(live, m) {
							t.Fatalf("seed=%d sites=%d mode=%v w=%d P=%d: monitor Φ history differs from the batch matrix",
								seed, s.Space.NumSites(), mode, wi, p)
						}
					}
					recur, novel := 0, 0
					for _, ev := range batch {
						if ev.Explanation == nil {
							t.Fatalf("seed=%d mode=%v w=%d: event at %d has no explanation", seed, mode, wi, ev.At)
						}
						if ev.Explanation.Recurrence {
							recur++
						} else {
							novel++
						}
					}
					if recur == 0 || novel == 0 {
						t.Fatalf("seed=%d sites=%d mode=%v w=%d: fixture yielded %d recurrences / %d novel — verdict equality is vacuous",
							seed, s.Space.NumSites(), mode, wi, recur, novel)
					}
				}
			}
		}
	}
}

// TestExplanationParallelismInvariance runs the user-visible pipeline
// shape — similarity matrix, then detection — at P=1 and P=auto and
// asserts the detected events (explanations included) are identical:
// the acceptance bar that recurrence labels are byte-identical at any
// parallelism. The matrix itself is pinned bit-identical across P
// elsewhere; this pins that nothing about running it perturbs the
// detector's provenance state.
func TestExplanationParallelismInvariance(t *testing.T) {
	s := randomSeries(t, 50, 64, 0.25, 61)
	w := randomWeights(64, 68)
	opts := DetectOptions{Window: 10, MinDrop: 0.1, Mode: PessimisticUnknown, Cooldown: 2}
	var ref []ChangeEvent
	for _, p := range []int{1, 0} {
		SimilarityMatrixParallel(s, w, PessimisticUnknown, MatrixOptions{Parallelism: p})
		got := DetectChanges(s, w, opts)
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("P=%d: events diverge from P=1 reference", p)
		}
	}
	if len(ref) == 0 {
		t.Fatal("fixture fired no events — test is vacuous")
	}
}
