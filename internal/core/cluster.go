package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fenrir/internal/obs"
)

// Linkage selects the Lance–Williams update rule for HAC.
type Linkage int

const (
	// AverageLinkage (UPGMA) is the default; the paper does not pin a
	// linkage, and average is the stable middle ground the ablation
	// bench compares against.
	AverageLinkage Linkage = iota
	// SingleLinkage merges on minimum pairwise distance (SLINK-style).
	SingleLinkage
	// CompleteLinkage merges on maximum pairwise distance.
	CompleteLinkage
)

func (l Linkage) String() string {
	switch l {
	case AverageLinkage:
		return "average"
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	}
	return fmt.Sprintf("linkage(%d)", int(l))
}

// Merge is one agglomeration step of the dendrogram: clusters A and B
// (indexes into the original rows for leaves, or prior merges offset by N)
// joined at the given cophenetic distance.
type Merge struct {
	A, B   int
	Height float64
}

// Dendrogram is the full HAC merge tree over n leaves.
type Dendrogram struct {
	N      int
	Merges []Merge // length N-1 for a fully merged tree
}

// triangles pools HAC's condensed distance triangles, as *[]float64. A
// triangle is taken for one nnChain run and put back when it returns, so
// the pool holds one triangle per re-cluster running at once (one per P
// in steady state), not one per monitor, and the collector drops an idle
// one after two cycles.
var triangles sync.Pool

// HAC builds a dendrogram from a similarity matrix using the nearest-
// neighbour-chain algorithm (O(N²) time), with distances d = 1 − Φ. All
// three supported linkages are reducible, so NN-chain yields the exact
// same tree as naive O(N³) agglomeration. The only distance store is one
// condensed n(n−1)/2 triangle (see nnChain), laid out as the matrix's
// rows and filled in one sequential pass over them. It comes from a
// shared pool and goes back once the merges are made; the Dendrogram
// never references it. A pooled triangle too small for the matrix is
// dropped and a new one allocated.
func HAC(m *SimMatrix, linkage Linkage) *Dendrogram {
	need := m.N * (m.N - 1) / 2
	buf, _ := triangles.Get().(*[]float64)
	if buf == nil || cap(*buf) < need {
		buf = new([]float64)
		*buf = make([]float64, 0, need)
	}
	d := (*buf)[:0]
	for _, row := range m.rows {
		for _, phi := range row {
			d = append(d, 1-phi)
		}
	}
	dg := nnChain(d, m.N, linkage)
	triangles.Put(buf)
	return dg
}

// tri is the slot of pair (i, j), j < i, in a condensed lower triangle:
// row i holds its i distances to rows 0..i−1 and starts at i(i−1)/2.
func tri(i, j int) int { return i*(i-1)/2 + j }

// nnChain is NN-chain HAC over a condensed distance triangle: d[tri(i, j)]
// holds the distance between rows i and j for j < i, and is clobbered by
// the run. The nearest neighbour of a chain's top is the smallest
// distance, ties going to the smaller row index; NaN sorts after every
// number, so a NaN distance cannot send the chain round a cycle. Scans
// and Lance–Williams updates visit only the live rows, kept as an
// ascending list; a merge keeps the row of the chain element below the
// top for the new cluster and retires the top's. Row starts come from a
// per-run offset table, off[i] = tri(i, 0).
func nnChain(d []float64, n int, linkage Linkage) *Dendrogram {
	dg := &Dendrogram{N: n}
	if n < 2 {
		return dg
	}
	dg.Merges = make([]Merge, 0, n-1)
	// One slab holds the four per-row tables and the chain.
	ints := make([]int, 5*n)
	size, id, live, off := ints[:n], ints[n:2*n], ints[2*n:3*n:3*n], ints[3*n:4*n]
	chain := ints[4*n : 4*n : 5*n]
	for i := range live {
		size[i], id[i], live[i], off[i] = 1, i, i, tri(i, 0)
	}
	for len(live) > 1 {
		if len(chain) == 0 {
			chain = append(chain, live[0])
		}
		top := chain[len(chain)-1]
		at := sort.SearchInts(live, top)
		best, bestD := nearest(d, off, live, at)
		if len(chain) < 2 || best != chain[len(chain)-2] {
			chain = append(chain, best)
			continue
		}
		// Reciprocal nearest neighbours: fold top into the row below it
		// on the chain.
		a, b := chain[len(chain)-2], top
		chain = chain[:len(chain)-2]
		dg.Merges = append(dg.Merges, Merge{A: id[a], B: id[b], Height: bestD})
		lanceWilliams(d, off, live, sort.SearchInts(live, a), at, linkage, float64(size[a]), float64(size[b]))
		size[a] += size[b]
		id[a] = n + len(dg.Merges) - 1
		live = append(live[:at], live[at+1:]...)
	}
	// Merges are recorded in NN-chain execution order. For the reducible
	// linkages supported here the dendrogram has no inversions, so a cut
	// can union any subset of merges with height below the threshold
	// without caring about order.
	return dg
}

// nearest is the nearest live neighbour of row live[at] and its
// distance, scanning in ascending row order so the first of equal
// distances wins: rows below it read its own row, rows above it read
// their entry in its column.
func nearest(d []float64, off, live []int, at int) (best int, bestD float64) {
	top := live[at]
	best, bestD = -1, math.Inf(1)
	row := d[off[top] : off[top]+top]
	for _, j := range live[:at] {
		if dj := row[j]; dj < bestD {
			best, bestD = j, dj
		}
	}
	for _, j := range live[at+1:] {
		if dj := d[off[j]+top]; dj < bestD {
			best, bestD = j, dj
		}
	}
	if best >= 0 {
		return best, bestD
	}
	// No distance below +Inf: the first +Inf wins, else the first row
	// (every distance is NaN).
	for _, j := range live {
		if j == top {
			continue
		}
		var dj float64
		if j < top {
			dj = row[j]
		} else {
			dj = d[off[j]+top]
		}
		if best < 0 || math.IsNaN(bestD) && !math.IsNaN(dj) {
			best, bestD = j, dj
		}
	}
	return best, bestD
}

// lanceWilliams folds row b = live[ib] into row a = live[ia] after their
// clusters, of na and nb leaves, merge: for every other live row k, the
// distance between a and k becomes the linkage's update of d(a, k) and
// d(b, k). The rows below both, between the two and above both are three
// regions with a loop each: a row k below both pairs with them in rows a
// and b, one above both in its own row, and one in between pairs with the
// lower of the two in its own row and with the higher in the higher's.
func lanceWilliams(d []float64, off, live []int, ia, ib int, linkage Linkage, na, nb float64) {
	a, b := live[ia], live[ib]
	lo, hi := min(ia, ib), max(ia, ib)
	ra, rb := off[a], off[b]
	for _, k := range live[:lo] {
		d[ra+k] = linkage.update(na, nb, d[ra+k], d[rb+k])
	}
	for _, k := range live[lo+1 : hi] {
		if a < b {
			d[off[k]+a] = linkage.update(na, nb, d[off[k]+a], d[rb+k])
		} else {
			d[ra+k] = linkage.update(na, nb, d[ra+k], d[off[k]+b])
		}
	}
	for _, k := range live[hi+1:] {
		rk := off[k]
		d[rk+a] = linkage.update(na, nb, d[rk+a], d[rk+b])
	}
}

// update is the Lance–Williams update of one distance: the merged
// cluster's distance to another from its parts' distances da and db, of
// na and nb leaves. The average is (na·da + nb·db)/(na + nb) as written,
// never through a reciprocal.
func (l Linkage) update(na, nb, da, db float64) float64 {
	switch l {
	case SingleLinkage:
		return min(da, db)
	case CompleteLinkage:
		return max(da, db)
	}
	return (na*da + nb*db) / (na + nb)
}

// Cut slices the dendrogram at a distance threshold, returning clusters as
// sorted row-index lists, ordered by first member. Merges strictly above
// the threshold are ignored.
func (dg *Dendrogram) Cut(threshold float64) [][]int {
	parent := make([]int, dg.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Each dendrogram node id maps to one representative leaf; merges are
	// recorded in execution order, so node n+k is created by Merges[k].
	rep := make([]int, dg.N+len(dg.Merges))
	for i := 0; i < dg.N; i++ {
		rep[i] = i
	}
	for k, mg := range dg.Merges {
		rep[dg.N+k] = rep[mg.A]
		if mg.Height <= threshold {
			ra, rb := find(rep[mg.A]), find(rep[mg.B])
			if ra != rb {
				parent[rb] = ra
			}
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < dg.N; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var out [][]int
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// AdaptiveOptions tunes the paper's distance-threshold search (§2.6.2).
type AdaptiveOptions struct {
	// MaxClusters is the paper's 15: accept the first threshold whose cut
	// produces fewer than this many clusters.
	MaxClusters int
	// MinMembers is the paper's 2: a cluster must have at least this many
	// observations to count as a valid routing mode.
	MinMembers int
	// Step is the sweep granularity over [0,1]; the paper uses 0.01.
	Step float64
	// Linkage for the underlying HAC.
	Linkage Linkage
	// Obs receives sweep statistics (merges scanned, per-cut cluster
	// counts, the chosen threshold); nil disables instrumentation with
	// no behavioural change.
	Obs *obs.Registry
	// Span, when a trace is active, parents one "sweep" child span per
	// threshold iteration (attrs threshold/clusters), so traces show the
	// sweep's convergence step by step. nil records nothing.
	Span *obs.Span
}

// DefaultAdaptiveOptions mirrors §2.6.2 exactly.
func DefaultAdaptiveOptions() AdaptiveOptions {
	return AdaptiveOptions{MaxClusters: 15, MinMembers: 2, Step: 0.01, Linkage: AverageLinkage}
}

// ClusterAdaptive runs the paper's adaptive-threshold procedure (§2.6.2):
// build one dendrogram, sweep the distance threshold over [0,1] in steps,
// and pick a cut with fewer than MaxClusters clusters of which at least
// one has MinMembers members. The paper notes "the number of clusters
// converges quickly when the distance threshold increases"; we make that
// convergence the selection criterion: among admissible thresholds, choose
// the start of the longest run of consecutive thresholds yielding the same
// cluster count (earliest run on ties). This skips transient thresholds
// where modes are only partially merged — the count there changes at every
// step — and lands where the clustering is stable.
//
// The sweep is incremental: instead of rebuilding a union-find per
// threshold (101 Cut calls), merges are sorted by height once and a
// single persistent union-find advances through them as the threshold
// rises. Only the finally chosen threshold materializes cluster lists,
// via Cut, so the returned (threshold, clusters) is identical to the
// from-scratch sweep while the sweep itself costs O(M log M + N·α)
// instead of O(steps · N·α · log N). Threshold admissibility needs only
// the live cluster count and whether any component has reached
// MinMembers, both maintained in O(1) per merge; the partition reached
// by applying a height-filtered merge subset is order-independent, so
// sorted application matches Cut's execution-order application exactly.
func ClusterAdaptive(m *SimMatrix, opts AdaptiveOptions) (threshold float64, clusters [][]int) {
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

	// Representative leaf of every dendrogram node, in execution order
	// (same mapping Cut builds).
	rep := make([]int, dg.N+len(dg.Merges))
	for i := 0; i < dg.N; i++ {
		rep[i] = i
	}
	for k, mg := range dg.Merges {
		rep[dg.N+k] = rep[mg.A]
	}

	// Merges ordered by height; the persistent union-find consumes them
	// left to right as the sweep threshold passes each height.
	order := make([]int, len(dg.Merges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return dg.Merges[order[a]].Height < dg.Merges[order[b]].Height
	})

	parent := make([]int, dg.N)
	size := make([]int, dg.N)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	numClusters := dg.N
	bigClusters := 0 // components with >= MinMembers members
	if opts.MinMembers <= 1 {
		bigClusters = dg.N
	}
	next := 0
	advance := func(t float64) {
		for next < len(order) && dg.Merges[order[next]].Height <= t {
			mg := dg.Merges[order[next]]
			next++
			ra, rb := find(rep[mg.A]), find(rep[mg.B])
			if ra == rb {
				continue
			}
			if size[ra] >= opts.MinMembers {
				bigClusters--
			}
			if size[rb] >= opts.MinMembers {
				bigClusters--
			}
			parent[rb] = ra
			size[ra] += size[rb]
			if size[ra] >= opts.MinMembers {
				bigClusters++
			}
			numClusters--
		}
	}

	// minPlateau is how many consecutive sweep steps must agree on the
	// cluster count before we call the clustering "converged". Three
	// steps (0.03 in distance) separates stable mode structure from the
	// transient thresholds where modes are mid-merge.
	const minPlateau = 3

	// Sweep statistics: the per-cut cluster-count histogram shows how
	// fast the dendrogram converges; merges-scanned and the chosen
	// threshold/count quantify the incremental sweep's work.
	sweepCounts := opts.Obs.Histogram("fenrir_cluster_sweep_clusters")
	record := func(th float64, cl [][]int) (float64, [][]int) {
		if opts.Obs != nil {
			opts.Obs.Counter("fenrir_cluster_merges_scanned_total").Add(int64(next))
			opts.Obs.Counter("fenrir_cluster_sweeps_total").Inc()
			opts.Obs.Gauge("fenrir_cluster_threshold").Set(th)
			opts.Obs.Gauge("fenrir_cluster_count").Set(float64(len(cl)))
		}
		return th, cl
	}

	type run struct {
		start float64
		count int
		len   int
	}
	var first, longest, cur run
	// Each threshold is computed as i·Step rather than accumulated with
	// t += Step: the accumulated form drifts (after 30 additions of 0.01
	// the sum is below 0.30 by ~5 ulps), which can put a merge whose
	// height sits exactly on a step boundary on the wrong side of
	// `Height <= t` compared to a from-scratch Cut at the nominal
	// threshold — and the threshold returned to callers was the drifted
	// value, not the grid point the paper's sweep describes.
	for i := 0; ; i++ {
		t := float64(i) * opts.Step
		if t > 1.0+1e-9 {
			break
		}
		isp := opts.Span.Child("sweep")
		advance(t)
		sweepCounts.Observe(float64(numClusters))
		isp.SetAttr("threshold", t)
		isp.SetAttr("clusters", numClusters)
		isp.End()
		if numClusters >= opts.MaxClusters || bigClusters == 0 {
			cur = run{}
			continue
		}
		if cur.len > 0 && cur.count == numClusters {
			cur.len++
		} else {
			cur = run{start: t, count: numClusters, len: 1}
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
		return record(first.start, dg.Cut(first.start))
	case longest.len > 0:
		// No plateau ever formed; take the longest admissible run.
		return record(longest.start, dg.Cut(longest.start))
	default:
		// No admissible cut at any threshold (e.g. a single
		// observation): fall back to the full merge.
		return record(1.0, dg.Cut(1.0))
	}
}
