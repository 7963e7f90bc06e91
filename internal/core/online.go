package core

// Live mode discovery: the batch pipeline (§2.6) builds a dendrogram and
// sweeps the distance threshold from scratch on every query. modeEngine
// caches the outcome — the swept partition of the default §2.6.2 sweep —
// for exactly one history:
//
//   - Any append or eviction invalidates the cache; the next query
//     re-clusters the monitor's cached Φ triangle (no Gower recompute, no
//     dense matrix), bounded by the window size, never by stream length.
//     The dendrogram exists only inside that rebuild.
//   - Queries against an unchanged history re-cluster nothing: the swept
//     (threshold, clusters) is returned as-is.
//
// Nothing here is persisted. A restored monitor starts stale and
// re-clusters on its first query, as it does after any append.
//
// Callers (Monitor) hold the monitor mutex around every method.
type modeEngine struct {
	// valid reports whether threshold and clusters partition the current
	// history; an append or eviction clears it.
	valid     bool
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

// invalidate drops the cached partition; the next query rebuilds.
func (e *modeEngine) invalidate() { e.valid = false }

// partition returns the swept (threshold, clusters) for the history whose
// matrix is m, re-clustering only when the cache is stale:
// ClusterAdaptive with the default §2.6.2 sweep. churn reports whether
// the reported structure (threshold or cluster count) moved since the
// previous call.
func (e *modeEngine) partition(m *SimMatrix) (threshold float64, clusters [][]int, churn bool) {
	if !e.valid {
		// No registry: the daemon's one registry would otherwise hold
		// whichever tenant was read last in the unlabelled fenrir_cluster_*
		// series. fenrir_monitor_mode_rebuilds_total counts these sweeps.
		// No span either: a per-threshold sweep span per rebuild would
		// fill a daemon's trace ring, each taken under the monitor's
		// lock; the caller's recluster span records the outcome.
		e.threshold, e.clusters = ClusterAdaptive(m, DefaultAdaptiveOptions())
		e.valid = true
		e.rebuilds++
	}
	churn = e.hasPrev && (e.threshold != e.prevThreshold || len(e.clusters) != e.prevCount)
	e.prevThreshold, e.prevCount, e.hasPrev = e.threshold, len(e.clusters), true
	return e.threshold, e.clusters, churn
}
