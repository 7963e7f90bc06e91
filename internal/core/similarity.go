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
// the data behind the paper's heatmaps.
type SimMatrix struct {
	Epochs []int // epoch of each row, parallel to the series vectors
	N      int
	vals   []float64 // row-major N×N
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
	// Parallelism is the number of worker goroutines filling the matrix.
	// 0 (the default) sizes the pool to runtime.GOMAXPROCS(0); 1 runs
	// the exact serial reference path on the calling goroutine. Values
	// above the row count are clamped. Every setting produces the
	// bit-identical matrix: parallelism only changes which goroutine
	// computes which tile, never the per-pair arithmetic.
	Parallelism int
	// TileRows is the number of consecutive matrix rows per work unit.
	// 0 picks a size yielding several tiles per worker so the atomic
	// tile counter load-balances the triangular row costs. Rows are
	// contiguous so each worker streams the same few assign slices.
	TileRows int
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
// the upper triangle of the T×T pair space into row tiles dispatched to
// a worker pool over an atomic tile counter. Every vector is packed once
// into one bit-sliced slab (bitset.go) and the packed kernel (mode ×
// weighting) is selected once, outside the pair loop. All vectors must
// share the series' Space; a mixed-space series panics here with a clear
// message rather than deep inside the kernel. opts.Kernel is ignored.
func SimilarityMatrixParallel(s *Series, w []float64, mode UnknownMode, opts MatrixOptions) *SimMatrix {
	validateMode(mode)
	n := len(s.Vectors)
	m := &SimMatrix{N: n, Epochs: make([]int, n), vals: make([]float64, n*n)}
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

	// fill computes the upper-triangle segments of rows [lo,hi). Every
	// path fills only the upper triangle and mirrors it in one blocked
	// pass at the end (mirrorLower): concurrent tiles never write into
	// each other's rows, and even the serial fill avoids a column-strided
	// store per pair, which at T=1024 cost as much as the kernels.
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.vals[i*n+i] = 1
			ri := &rows[i]
			for j := i + 1; j < n; j++ {
				m.vals[i*n+j] = kern(ri, &rows[j])
			}
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
				np += n - i - 1
			}
			pairs.Add(int64(np))
		}
	}
	if p <= 1 {
		tsp := opts.Span.Child("tile")
		tsp.SetAttr("row0", 0)
		tsp.SetAttr("rows", n)
		fill(0, n)
		tsp.End()
		mirrorLower(m.vals, n)
		return m
	}

	var tiles []rowSpan
	if opts.TileRows > 0 {
		// Explicit tile shape: fixed consecutive-row tiles, kept for
		// tests and for callers that tuned a shape.
		for lo := 0; lo < n; lo += opts.TileRows {
			tiles = append(tiles, rowSpan{lo, min(lo+opts.TileRows, n)})
		}
	} else {
		tiles = balancedTriangleTiles(n, p)
	}
	opts.Obs.Gauge("fenrir_similarity_tile_rows").Set(float64(n) / float64(len(tiles)))

	// Tiles are claimed off an atomic counter by the persistent worker
	// pool plus the calling goroutine, which always participates — so the
	// matrix completes even when the pool is busy with another matrix
	// (helpers are best-effort, correctness never depends on them).
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
	for k := 1; k < p; k++ {
		lane := k + 1
		if !submitSimWork(func() { drain(lane) }, &wg) {
			break // pool saturated; the caller drains the rest
		}
	}
	drain(1)
	wg.Wait()
	mirrorLower(m.vals, n)
	return m
}

// rowSpan is one work unit: consecutive matrix rows [lo,hi).
type rowSpan struct{ lo, hi int }

// balancedTriangleTiles splits the upper triangle's n rows into at most
// p spans carrying near-equal pair counts. Row i contributes n-i-1 pairs,
// so equal-row tiles front-load ~2× the work into the early tiles; the
// balanced boundaries instead cut the cumulative pair count at k/p
// increments. Boundaries are padded up to multiples of 8 rows (one
// 64-byte cache line of float64 row starts) so adjacent tiles' row
// ranges never share a line at the seam.
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
			acc += float64(n - hi - 1)
			hi++
		}
		if k < p {
			// Pad the boundary to an 8-row multiple; the final tile
			// always ends at n.
			if rem := hi % 8; rem != 0 && hi+8-rem < n {
				for i := hi; i < hi+8-rem; i++ {
					acc += float64(n - i - 1)
				}
				hi += 8 - rem
			}
		} else {
			for hi < n {
				acc += float64(n - hi - 1)
				hi++
			}
		}
		tiles = append(tiles, rowSpan{lo, hi})
		lo = hi
	}
	if lo < n {
		tiles = append(tiles, rowSpan{lo, n})
	}
	return tiles
}

// mirrorLower copies the upper triangle onto the lower one in 64×64
// blocks, keeping both the reads and the writes within a few cache lines
// per step instead of striding a full row per element.
func mirrorLower(vals []float64, n int) {
	const blk = 64
	for bi := 0; bi < n; bi += blk {
		iHi := min(bi+blk, n)
		for bj := bi; bj < n; bj += blk {
			jHi := min(bj+blk, n)
			for i := bi; i < iHi; i++ {
				jLo := bj
				if jLo <= i {
					jLo = i + 1
				}
				for j := jLo; j < jHi; j++ {
					vals[j*n+i] = vals[i*n+j]
				}
			}
		}
	}
}

// simPool is the persistent worker pool behind every parallel matrix
// fill: GOMAXPROCS goroutines started on first use and kept for the
// process lifetime, so the serve daemon's steady stream of matrix
// queries never pays goroutine startup on the hot path.
var (
	simPoolOnce sync.Once
	simWork     chan func()
)

// submitSimWork hands a task to the pool without ever blocking: if every
// worker is busy and the queue is full it reports false and the caller
// runs the work itself. wg is incremented on acceptance and released by
// the worker.
func submitSimWork(f func(), wg *sync.WaitGroup) bool {
	simPoolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		simWork = make(chan func(), 4*workers)
		for i := 0; i < workers; i++ {
			go func() {
				for task := range simWork {
					task()
				}
			}()
		}
	})
	wg.Add(1)
	select {
	case simWork <- func() { defer wg.Done(); f() }:
		return true
	default:
		wg.Done()
		return false
	}
}

// At returns Φ between rows i and j.
func (m *SimMatrix) At(i, j int) float64 { return m.vals[i*m.N+j] }

// set is used by tests constructing synthetic matrices.
func (m *SimMatrix) set(i, j int, v float64) {
	m.vals[i*m.N+j] = v
	m.vals[j*m.N+i] = v
}

// NewSimMatrix builds an empty matrix for n rows (diagonal = 1), used by
// tests and by tools that load precomputed matrices.
func NewSimMatrix(n int) *SimMatrix {
	m := &SimMatrix{N: n, Epochs: make([]int, n), vals: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		m.Epochs[i] = i
		m.vals[i*n+i] = 1
	}
	return m
}

// Set assigns Φ symmetrically (exported for matrix construction outside
// the package; analysis code treats matrices as immutable).
func (m *SimMatrix) Set(i, j int, v float64) { m.set(i, j, v) }

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
