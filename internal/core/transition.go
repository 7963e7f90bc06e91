package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// TransitionMatrix is the paper's T(t,t',s,s') (§2.7): how many networks
// were at site s at time t and at site s' at time t'. The site axis
// includes every label seen in either vector plus "unknown" so drains that
// push networks into the error state (Table 3's STR→err column) are
// visible.
type TransitionMatrix struct {
	Sites []string // axis labels, stable order
	// real is how many of Sites are real sites, sorted by label; err,
	// other and unknown follow them.
	real int
	// cells are the cells at least one network falls in, ordered by
	// source and then target column. Each is summed in network row
	// order, as are the masses: a fractional-weight sum then has the same
	// bits on every call.
	cells                            []cell
	moved, stayed, unobserved, total float64
}

// cell is one (from, to) cell of a TransitionMatrix, by axis column, and
// the weight summed into it.
type cell struct {
	from, to int32
	count    float64
}

// UnknownLabel is the axis label used for unobserved assignments.
const UnknownLabel = "unknown"

// Transition computes the matrix between two vectors in the same space.
// w may be nil for unit counts; with weights, cells accumulate weight
// rather than network count (§2.5 applied to transitions), and w must
// have one entry per network, as Gower requires.
//
// The matrix is built over the space's interned site indexes, with
// O(networks + sites) working memory: a stable counting sort groups the
// networks by source column, and one accumulator row per source sums its
// cells in network row order.
func Transition(a, b *Vector, w []float64) *TransitionMatrix {
	if a.Space != b.Space {
		panic("core: Transition across spaces")
	}
	if w != nil && len(w) != len(a.assign) {
		panic(fmt.Sprintf("core: weight length %d != networks %d", len(w), len(a.assign)))
	}
	from, to := a.assign, b.assign[:len(a.assign)]
	labels := a.Space.sites.labels()
	// col is indexed by assignment + 1, so Unknown is col[0]. It first
	// marks the assignments either vector holds, then maps each of them
	// to its axis column.
	col := make([]int32, len(labels)+1)
	for n := range from {
		col[from[n]+1] = 1
		col[to[n]+1] = 1
	}
	// The axis is the paper's table layout: real sites sorted, then err,
	// other and unknown. A real site labelled "unknown" shares the
	// unknown column with unobserved networks.
	real := make([]int32, 0, len(labels))
	var special [3]int32 // err, other, a real "unknown": assignment + 1, or 0
	for x := 1; x < len(col); x++ {
		if col[x] == 0 {
			continue
		}
		switch labels[x-1] {
		case SiteError:
			special[0] = int32(x)
		case SiteOther:
			special[1] = int32(x)
		case UnknownLabel:
			special[2] = int32(x)
		default:
			real = append(real, int32(x))
		}
	}
	slices.SortFunc(real, func(x, y int32) int { return strings.Compare(labels[x-1], labels[y-1]) })
	tm := &TransitionMatrix{real: len(real)}
	if len(from) > 0 { // with no networks, Sites stays nil
		tm.Sites = make([]string, 0, len(real)+len(special))
	}
	for _, x := range real {
		col[x] = int32(len(tm.Sites))
		tm.Sites = append(tm.Sites, labels[x-1])
	}
	for i, label := range [...]string{SiteError, SiteOther} {
		if x := special[i]; x != 0 {
			col[x] = int32(len(tm.Sites))
			tm.Sites = append(tm.Sites, label)
		}
	}
	if col[0] != 0 || special[2] != 0 {
		// Without a real "unknown" site both writes go to col[0]; without
		// an unobserved network col[0] is never read.
		col[0], col[special[2]] = int32(len(tm.Sites)), int32(len(tm.Sites))
		tm.Sites = append(tm.Sites, UnknownLabel)
	}

	// Count each source column's networks and sum the masses, both in
	// network row order.
	k := len(tm.Sites)
	end := make([]int32, k+1)
	for n, f := range from {
		end[col[f+1]+1]++
		wi := 1.0
		if w != nil {
			wi = w[n]
		}
		tm.total += wi
		switch t := to[n]; {
		case f == Unknown || t == Unknown:
			tm.unobserved += wi
		case f == t:
			tm.stayed += wi
		default:
			tm.moved += wi
		}
	}
	for c := 1; c <= k; c++ {
		end[c] += end[c-1]
	}
	// Stable counting sort: order lists the networks by source column,
	// in row order within each. Placing advances end[c] from the column's
	// start to its end.
	order := make([]int32, len(from))
	for n, f := range from {
		c := col[f+1]
		order[end[c]] = int32(n)
		end[c]++
	}
	// A source column's cells are its distinct target columns: count
	// them, so the cells are allocated at their exact size.
	touched := make([]uint64, (k+63)/64)
	cells, lo := 0, int32(0)
	for c := 0; c < k; c++ {
		for _, n := range order[lo:end[c]] {
			t := col[to[n]+1]
			touched[t>>6] |= 1 << (t & 63)
		}
		lo = end[c]
		for i, word := range touched {
			cells += bits.OnesCount64(word)
			touched[i] = 0
		}
	}
	// One source column at a time, accumulate its networks into a row
	// over the target columns, then emit that row's touched cells in
	// column order.
	acc := make([]float64, k)
	tm.cells = make([]cell, 0, cells)
	lo = 0
	for c := 0; c < k; c++ {
		for _, n := range order[lo:end[c]] {
			t := col[to[n]+1]
			if w != nil {
				acc[t] += w[n]
			} else {
				acc[t]++
			}
			touched[t>>6] |= 1 << (t & 63)
		}
		lo = end[c]
		for i, word := range touched {
			for ; word != 0; word &= word - 1 {
				t := i<<6 | bits.TrailingZeros64(word)
				tm.cells = append(tm.cells, cell{from: int32(c), to: int32(t), count: acc[t]})
				acc[t] = 0
			}
			touched[i] = 0
		}
	}
	return tm
}

// column returns the axis column of a label.
func (tm *TransitionMatrix) column(label string) (int, bool) {
	switch label {
	case SiteError, SiteOther, UnknownLabel:
		i := slices.Index(tm.Sites[tm.real:], label)
		return tm.real + i, i >= 0
	}
	return slices.BinarySearch(tm.Sites[:tm.real], label)
}

// cellIndex returns the position in cells of the first cell at or after
// column pair (i, j).
func (tm *TransitionMatrix) cellIndex(i, j int) int {
	return sort.Search(len(tm.cells), func(k int) bool {
		c := tm.cells[k]
		return int(c.from) > i || int(c.from) == i && int(c.to) >= j
	})
}

// At returns the cell for (from, to) site labels; absent labels count 0.
func (tm *TransitionMatrix) At(from, to string) float64 {
	i, okI := tm.column(from)
	j, okJ := tm.column(to)
	if !okI || !okJ {
		return 0
	}
	if k := tm.cellIndex(i, j); k < len(tm.cells) && int(tm.cells[k].from) == i && int(tm.cells[k].to) == j {
		return tm.cells[k].count
	}
	return 0
}

// Moved returns the total weight that verifiably shifted between the two
// vectors: networks observed at different sites in both. Networks
// unobserved in either vector are excluded for the same reason Stayed
// excludes networks unobserved in both — a network that vanished from (or
// appeared in) the measurement tells us nothing about routing stability,
// and counting it would let a collection outage masquerade as churn. The
// excluded weight is still retrievable via At/Row and is totalled by
// Unobserved, so Moved + Stayed + Unobserved equals Total.
func (tm *TransitionMatrix) Moved() float64 { return tm.moved }

// Unobserved returns the total weight of networks unobserved in either
// vector — both the site↔unknown flows that Moved excludes and the
// unknown→unknown cell that Stayed excludes. The three accessors
// partition the matrix: Moved + Stayed + Unobserved == Total.
func (tm *TransitionMatrix) Unobserved() float64 { return tm.unobserved }

// Total returns the total weight in the matrix: Σw over every network,
// however observed.
func (tm *TransitionMatrix) Total() float64 { return tm.total }

// Stayed returns the weight of networks observed at the same site in both
// vectors (networks never observed tell us nothing about stability).
func (tm *TransitionMatrix) Stayed() float64 { return tm.stayed }

// Row returns the distribution out of a site: where its networks went.
func (tm *TransitionMatrix) Row(from string) map[string]float64 {
	out := make(map[string]float64)
	i, ok := tm.column(from)
	if !ok {
		return out
	}
	for _, c := range tm.cells[tm.cellIndex(i, 0):] {
		if int(c.from) != i {
			break
		}
		if c.count != 0 {
			out[tm.Sites[c.to]] = c.count
		}
	}
	return out
}

// LargestFlows returns the top-k off-diagonal flows, largest first — the
// headline numbers an operator reads off Table 3 ("3097 networks move from
// STR to NAP").
type Flow struct {
	From, To string
	Count    float64
}

// LargestFlows returns up to k off-diagonal flows sorted descending by
// count, ties broken by From then To (cells are unique, so the order is
// total). k <= 0 returns every flow. For k > 0 the k best are kept by a
// bounded insertion instead of sorting every cell: change explanations
// ask for 5 flows out of up to sites² cells.
func (tm *TransitionMatrix) LargestFlows(k int) []Flow {
	before := func(a, b Flow) bool {
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	}
	var flows []Flow
	for _, c := range tm.cells {
		if c.from == c.to || c.count <= 0 {
			continue
		}
		f := Flow{From: tm.Sites[c.from], To: tm.Sites[c.to], Count: c.count}
		if k <= 0 {
			flows = append(flows, f)
			continue
		}
		if i := sort.Search(len(flows), func(i int) bool { return before(f, flows[i]) }); i < k {
			flows = slices.Insert(flows, i, f)[:min(len(flows)+1, k)]
		}
	}
	if k <= 0 {
		sort.Slice(flows, func(i, j int) bool { return before(flows[i], flows[j]) })
	}
	return flows
}
