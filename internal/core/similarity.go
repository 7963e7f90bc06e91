package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fenrir/internal/obs"
)

// UnknownMode selects how Φ treats networks whose catchment is unknown in
// either vector.
type UnknownMode int

const (
	// PessimisticUnknown is the paper's published definition: an unknown
	// on either side counts as a mismatch, so imperfect measurements pull
	// Φ down (Verfploeter's ~50 % unknowns cap stable Φ near 0.5–0.6).
	PessimisticUnknown UnknownMode = iota
	// KnownOnly is the paper's stated ongoing work: networks unknown in
	// either vector are removed from both numerator and denominator, so Φ
	// measures similarity over the jointly observed networks.
	KnownOnly
)

func (m UnknownMode) String() string {
	switch m {
	case PessimisticUnknown:
		return "pessimistic"
	case KnownOnly:
		return "known-only"
	}
	return fmt.Sprintf("unknown-mode(%d)", int(m))
}

// Valid reports whether m is one of the defined unknown-handling modes.
func (m UnknownMode) Valid() bool {
	return m == PessimisticUnknown || m == KnownOnly
}

// validateMode panics on an out-of-range UnknownMode. The similarity
// entry points (Gower, SimilarityMatrix*, NewMonitor) call it so a
// miswired mode fails loudly at the boundary instead of silently
// producing Φ = 0 for every pair — plausible-looking zeros that would
// poison every downstream matrix, clustering, and detection result.
func validateMode(m UnknownMode) {
	if !m.Valid() {
		panic(fmt.Sprintf("core: invalid UnknownMode %d (want PessimisticUnknown or KnownOnly)", int(m)))
	}
}

// Gower computes the normalized weighted Gower similarity Φ(t,t') of
// §2.6.1 between two vectors in the same space:
//
//	Φ = Σ_n M(t,t',n)·w(n) / Σ_n w(n)
//
// with M = 1 iff both assignments are known and equal. w may be nil for
// uniform weights. The result is in [0,1]: the weighted fraction of
// networks whose catchment is the same in both vectors.
//
// This is the engine's one scalar loop, kept for single pairs (adjacent
// detection pairs, centroid checks), where packing both rows would cost
// more than the one comparison it serves. Whole matrices and monitor
// rows use the packed kernels (bitset.go), which are bit-identical to it:
// uniform weights count exact integers, and weighted sums run in
// ascending index order. Integer counts also keep the uniform case off a
// float addition chain, which made it ~1.5× slower.
func Gower(a, b *Vector, w []float64, mode UnknownMode) float64 {
	if a.Space != b.Space {
		panic("core: Gower across spaces")
	}
	if w != nil && len(w) != len(a.assign) {
		panic(fmt.Sprintf("core: weight length %d != networks %d", len(w), len(a.assign)))
	}
	validateMode(mode)
	knownOnly := mode == KnownOnly
	y := b.assign[:len(a.assign)]
	var match, total float64 // weighted sums, in ascending index order
	var matched, counted int // uniform weights: exact integer counts
	for i, x := range a.assign {
		if knownOnly && (x == Unknown || y[i] == Unknown) {
			continue
		}
		// Flags, not a branch, for the data-dependent match test: each
		// is a SETcc.
		eq, known := 0, 0
		if x == y[i] {
			eq = 1
		}
		if x != Unknown {
			known = 1
		}
		if w == nil {
			counted++
			matched += eq & known
			continue
		}
		total += w[i]
		if eq&known == 1 {
			match += w[i]
		}
	}
	if w == nil {
		match, total = float64(matched), float64(counted)
	}
	if total == 0 {
		return 0
	}
	return match / total
}

// SimMatrix is a symmetric all-pairs similarity matrix over a series —
// the data behind the paper's heatmaps. It stores the strict lower
// triangle as rows, rows[i][j] = Φ(i, j) for j < i, with the diagonal
// fixed at 1: the layout of a Monitor's Φ history, so batch and stream
// share one store and Monitor.Matrix shares the monitor's rows.
type SimMatrix struct {
	Epochs []int // epoch of each row, parallel to the series vectors
	N      int
	rows   [][]float64 // rows[i] holds Φ(i, j) for j < i
}

// SimKernel is the type of the deprecated Kernel option fields.
//
// Deprecated: there is one Φ engine, the packed kernels; no value selects
// another.
type SimKernel int

// MatrixOptions tunes the parallel similarity engine.
type MatrixOptions struct {
	// Kernel is ignored.
	//
	// Deprecated: SimilarityMatrixParallel always uses the packed engine.
	Kernel SimKernel
	// Parallelism is the number of lanes filling the matrix: the caller
	// plus Parallelism−1 goroutines. 0 (the default) uses
	// runtime.GOMAXPROCS(0) lanes; 1 fills the whole triangle as one tile
	// on the calling goroutine. Values above the row count are clamped.
	// Every setting produces the bit-identical matrix: parallelism only
	// changes which goroutine computes which tile, never the per-pair
	// arithmetic.
	Parallelism int
	// Obs receives engine instrumentation: per-tile fill timing, pair
	// counts, and worker/tile gauges. nil (the
	// default) disables instrumentation entirely — the hot loop is
	// untouched and the matrix is bit-identical either way.
	Obs *obs.Registry
	// Span, when a trace is active, parents one "tile" child span per
	// work unit (attrs row0/rows, lane = worker index) so traces show
	// where the quadratic fill spent its time. nil — or a registry not
	// tracing — records nothing.
	Span *obs.Span
}

// SimilarityMatrix computes Φ for every vector pair in the series.
// Quadratic in series length and linear in networks; this is the
// pipeline's dominant cost and is benchmarked at several scales. It
// delegates to SimilarityMatrixParallel with automatic parallelism — the
// result is deterministic and bit-identical at every worker count.
func SimilarityMatrix(s *Series, w []float64, mode UnknownMode) *SimMatrix {
	return SimilarityMatrixParallel(s, w, mode, MatrixOptions{})
}

// SimilarityMatrixParallel computes the all-pairs Φ matrix by splitting
// the lower triangle of the T×T pair space into row tiles that p lanes
// claim off an atomic tile counter: the caller drains lane 1 and lanes
// 2..p are goroutines started for this call. Every vector is packed once
// into one bit-sliced slab (bitset.go) and the packed kernel (mode ×
// weighting) is selected once, outside the pair loop. Row i is one
// kernel call, kern.row(row i, rows[:i]) — the call Monitor.Append makes
// for each new vector, so batch and stream agree by construction. All
// vectors must share the series' Space; a mixed-space series panics here
// with a clear message rather than deep inside the kernel. opts.Kernel
// is ignored.
func SimilarityMatrixParallel(s *Series, w []float64, mode UnknownMode, opts MatrixOptions) *SimMatrix {
	validateMode(mode)
	n := len(s.Vectors)
	m := NewSimMatrix(n)
	for i, v := range s.Vectors {
		if v.Space != s.Space {
			panic(fmt.Sprintf("core: SimilarityMatrix: vector %d (epoch %d) belongs to a different Space than its series", i, int(v.T)))
		}
		m.Epochs[i] = int(v.T)
	}
	if n == 0 {
		return m
	}
	nets := len(s.Vectors[0].assign)
	if w != nil && len(w) != nets {
		panic(fmt.Sprintf("core: weight length %d != networks %d", len(w), nets))
	}
	// The slab is rebuilt per call rather than cached on the Series: its
	// Vectors are mutable, and no other batch stage would reuse it.
	rows := packSlab(s.Vectors)
	kern := packedGowerKernel(w, mode, nets)

	// fill computes rows [lo,hi). Each tile writes only its own rows, so
	// concurrent tiles never share an output row.
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			kern.row(&rows[i], rows[:i], m.rows[i])
		}
	}

	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if opts.Obs != nil {
		// Instrumentation wraps the tile-fill closure rather than the
		// per-pair loop: one monotonic time.Since per tile, never per
		// pair, and only when a registry is attached.
		opts.Obs.Counter("fenrir_similarity_matrices_total").Inc()
		opts.Obs.Gauge("fenrir_similarity_workers").Set(float64(p))
		tileDur := opts.Obs.Histogram("fenrir_similarity_tile_seconds")
		pairs := opts.Obs.Counter("fenrir_similarity_pairs_total")
		base := fill
		fill = func(lo, hi int) {
			t0 := time.Now()
			base(lo, hi)
			tileDur.ObserveSince(t0)
			np := 0
			for i := lo; i < hi; i++ {
				np += i
			}
			pairs.Add(int64(np))
		}
	}

	tiles := balancedTriangleTiles(n, p)
	opts.Obs.Gauge("fenrir_similarity_tile_rows").Set(float64(n) / float64(len(tiles)))

	// Tiles are claimed off an atomic counter by lanes 2..p, each a
	// goroutine that lives for this call, and by the caller as lane 1. At
	// P=1 the one tile is drained on the caller and no goroutine starts.
	var next atomic.Int64
	drain := func(lane int) {
		for {
			t := int(next.Add(1)) - 1
			if t >= len(tiles) {
				return
			}
			tsp := opts.Span.Child("tile")
			tsp.SetLane(lane)
			tsp.SetAttr("row0", tiles[t].lo)
			tsp.SetAttr("rows", tiles[t].hi-tiles[t].lo)
			fill(tiles[t].lo, tiles[t].hi)
			tsp.End()
		}
	}
	var wg sync.WaitGroup
	for lane := 2; lane <= p; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(lane)
		}()
	}
	drain(1)
	wg.Wait()
	return m
}

// rowSpan is one work unit: consecutive matrix rows [lo,hi).
type rowSpan struct{ lo, hi int }

// balancedTriangleTiles splits the lower triangle's n rows into at most
// p spans carrying near-equal pair counts. Row i holds i pairs, so
// equal-row tiles would leave ~2× the average work in the last tile; the
// balanced boundaries instead cut the cumulative pair count at k/p
// increments, and the last span always ends at n.
func balancedTriangleTiles(n, p int) []rowSpan {
	if p > n {
		p = n
	}
	total := float64(n) * float64(n-1) / 2
	tiles := make([]rowSpan, 0, p)
	lo, acc := 0, 0.0
	for k := 1; k <= p && lo < n; k++ {
		target := total * float64(k) / float64(p)
		hi := lo
		for hi < n && (acc < target || hi == lo) {
			acc += float64(hi)
			hi++
		}
		if k == p {
			hi = n
		}
		tiles = append(tiles, rowSpan{lo, hi})
		lo = hi
	}
	return tiles
}

// At returns Φ between rows i and j, reading the pair from the row of
// the larger index; At(i, i) is 1.
func (m *SimMatrix) At(i, j int) float64 {
	switch {
	case i > j:
		return m.rows[i][j]
	case i < j:
		return m.rows[j][i]
	}
	return 1
}

// NewSimMatrix builds an empty matrix for n rows (diagonal = 1), used by
// tests and by tools that load precomputed matrices. Its triangle is one
// n(n−1)/2 slab, row i starting at i(i−1)/2.
func NewSimMatrix(n int) *SimMatrix {
	m := &SimMatrix{N: n, Epochs: make([]int, n), rows: make([][]float64, n)}
	slab := make([]float64, n*(n-1)/2)
	for i := range m.rows {
		m.Epochs[i] = i
		m.rows[i] = slab[tri(i, 0):tri(i, i):tri(i, i)]
	}
	return m
}

// Set assigns Φ(i, j) = Φ(j, i) = v (exported for matrix construction
// outside the package; analysis code treats matrices as immutable). The
// diagonal is fixed at 1, so Set panics when i == j.
func (m *SimMatrix) Set(i, j int, v float64) {
	switch {
	case i > j:
		m.rows[i][j] = v
	case i < j:
		m.rows[j][i] = v
	default:
		panic(fmt.Sprintf("core: SimMatrix.Set(%d, %d): the diagonal is fixed at 1", i, j))
	}
}

// PhiRange reports the [min,max] similarity between two index sets —
// the paper's Φ(M_i, M_j) interval notation for comparing modes. When a
// and b are the same set, the diagonal is excluded.
//
// When the sets contribute no pairs (either set empty, or only diagonal
// cells), PhiRange returns the sentinel (0, 0), which is indistinguishable
// from a real Φ interval of [0,0]; callers that must tell the two apart
// should use PhiRangeOK.
func (m *SimMatrix) PhiRange(a, b []int) (lo, hi float64) {
	lo, hi, _ = m.PhiRangeOK(a, b)
	return lo, hi
}

// PhiRangeOK is PhiRange with an explicit ok: ok is false — and lo, hi
// are 0 — when a×b contains no off-diagonal pairs, so a genuine Φ
// interval of [0,0] (ok=true) cannot be confused with "no pairs".
func (m *SimMatrix) PhiRangeOK(a, b []int) (lo, hi float64, ok bool) {
	for _, i := range a {
		for _, j := range b {
			if i == j {
				continue
			}
			v := m.At(i, j)
			if !ok {
				lo, hi, ok = v, v, true
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if !ok {
		return 0, 0, false
	}
	return lo, hi, true
}

// phiRangeWithin is PhiRange(rows, rows) for distinct rows in ascending
// order, as Cut returns them: each pair is read once, from the Φ row of
// its larger index, which the order makes the later of the two.
func (m *SimMatrix) phiRangeWithin(rows []int) (lo, hi float64) {
	ok := false
	for a, i := range rows {
		row := m.rows[i]
		for _, j := range rows[:a] {
			v := row[j]
			if !ok {
				lo, hi, ok = v, v, true
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// MeanPhi returns the mean off-diagonal similarity between two index sets.
func (m *SimMatrix) MeanPhi(a, b []int) float64 {
	var sum float64
	var n int
	for _, i := range a {
		for _, j := range b {
			if i == j {
				continue
			}
			sum += m.At(i, j)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
