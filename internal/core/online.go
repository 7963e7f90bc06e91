package core

import "fenrir/internal/obs"

// Live mode discovery: the batch pipeline (§2.6) builds a dendrogram and
// sweeps the distance threshold from scratch on every query. modeEngine
// caches one such result — the dendrogram and its sweep — for exactly
// one history length:
//
//   - Any append or eviction invalidates the cache; the next query
//     rebuilds the dendrogram from the monitor's cached Φ triangle (no
//     Gower recompute, no dense matrix), bounded by the window size,
//     never by stream length.
//   - Queries against an unchanged history re-cluster nothing: the
//     dendrogram and the swept (threshold, clusters) are returned as-is.
//   - A snapshot restore seeds the dendrogram from the persisted merges,
//     so a warm restart answers its first query by sweeping alone.
//
// Callers (Monitor) hold the monitor mutex around every method.
type modeEngine struct {
	// opts is the normalized sweep configuration; Obs and Span are
	// always nil here — the monitor attaches its registry per sweep.
	opts AdaptiveOptions

	// dg is the dendrogram over the current history, nil when an append
	// or eviction has invalidated it.
	dg *Dendrogram

	// Cached sweep result for dg.
	swept     bool
	threshold float64
	clusters  [][]int

	// Churn baseline: the previously reported (threshold, cluster count),
	// so the monitor can count how often the mode structure moves.
	prevThreshold float64
	prevCount     int
	hasPrev       bool

	// rebuilds counts full re-clusterings; the equivalence tests assert
	// on it to pin the cache.
	rebuilds uint64
}

// newModeEngine normalizes the sweep options once; Obs/Span are carried
// per-call instead so instrumentation never changes engine identity.
func newModeEngine(opts AdaptiveOptions) *modeEngine {
	opts.Obs, opts.Span = nil, nil
	return &modeEngine{opts: normalizeAdaptive(opts)}
}

// invalidate drops the cached dendrogram; the next query rebuilds.
func (e *modeEngine) invalidate() {
	e.dg = nil
	e.swept = false
}

// rebuildFromTriangle runs a full HAC over the monitor's lower-triangular
// Φ rows (sim[i][j] for j < i), the same distances HAC(m.Matrix(),
// linkage) would see.
func (e *modeEngine) rebuildFromTriangle(sim [][]float64, n int) {
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			dist := 1 - sim[i][j]
			d[i*n+j] = dist
			d[j*n+i] = dist
		}
	}
	e.dg = hacDistances(d, n, e.opts.Linkage)
	e.swept = false
	e.rebuilds++
}

// restore seeds the engine from a persisted dendrogram: the next query
// sweeps it without re-clustering.
func (e *modeEngine) restore(dg *Dendrogram) {
	e.dg = dg
	e.swept = false
}

// sweep returns the cached (threshold, clusters) for the current
// dendrogram, running the threshold sweep only after a rebuild or
// restore. churn reports whether the reported structure (threshold or
// cluster count) moved since the previous sweep.
func (e *modeEngine) sweep(reg *obs.Registry, sp *obs.Span) (threshold float64, clusters [][]int, churn bool) {
	if !e.swept {
		o := e.opts
		o.Obs, o.Span = reg, sp
		e.threshold, e.clusters = sweepDendrogram(e.dg, o)
		e.swept = true
	}
	churn = e.hasPrev && (e.threshold != e.prevThreshold || len(e.clusters) != e.prevCount)
	e.prevThreshold, e.prevCount, e.hasPrev = e.threshold, len(e.clusters), true
	return e.threshold, e.clusters, churn
}
