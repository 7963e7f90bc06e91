package core

import (
	"slices"
	"sort"
)

// TransitionMatrix is the paper's T(t,t',s,s') (§2.7): how many networks
// were at site s at time t and at site s' at time t'. The site axis
// includes every label seen in either vector plus "unknown" so drains that
// push networks into the error state (Table 3's STR→err column) are
// visible.
type TransitionMatrix struct {
	Sites  []string // axis labels, stable order
	counts map[[2]int]float64
	index  map[string]int
}

// UnknownLabel is the axis label used for unobserved assignments.
const UnknownLabel = "unknown"

// Transition computes the matrix between two vectors in the same space.
// w may be nil for unit counts; with weights, cells accumulate weight
// rather than network count (§2.5 applied to transitions).
func Transition(a, b *Vector, w []float64) *TransitionMatrix {
	if a.Space != b.Space {
		panic("core: Transition across spaces")
	}
	// Collect the label set actually present, ordered: real sites sorted,
	// then err/other, then unknown. This matches the paper's table layout
	// (sites first, error and other states last).
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

	tm := &TransitionMatrix{
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
	}
	return tm
}

// At returns the cell for (from, to) site labels; absent labels count 0.
func (tm *TransitionMatrix) At(from, to string) float64 {
	i, okI := tm.index[from]
	j, okJ := tm.index[to]
	if !okI || !okJ {
		return 0
	}
	return tm.counts[[2]int{i, j}]
}

// Moved returns the total weight that verifiably shifted between the two
// vectors: off-diagonal cells whose endpoints are both observed sites.
// Cells into or out of "unknown" are excluded for the same reason Stayed
// excludes unknown→unknown — a network that vanished from (or appeared
// in) the measurement tells us nothing about routing stability, and
// counting it would let a collection outage masquerade as churn. The
// excluded weight is still retrievable via At/Row and is totalled by
// Unobserved, so Moved + Stayed + Unobserved equals the matrix weight.
func (tm *TransitionMatrix) Moved() float64 {
	var sum float64
	u, hasUnknown := tm.index[UnknownLabel]
	for k, v := range tm.counts {
		if k[0] == k[1] {
			continue
		}
		if hasUnknown && (k[0] == u || k[1] == u) {
			continue
		}
		sum += v
	}
	return sum
}

// Unobserved returns the total weight in unknown-involved cells — both
// the off-diagonal site↔unknown flows that Moved excludes and the
// unknown→unknown cell that Stayed excludes. The three accessors
// partition the matrix: Moved + Stayed + Unobserved == Total.
func (tm *TransitionMatrix) Unobserved() float64 {
	u, hasUnknown := tm.index[UnknownLabel]
	if !hasUnknown {
		return 0
	}
	var sum float64
	for k, v := range tm.counts {
		if k[0] == u || k[1] == u {
			sum += v
		}
	}
	return sum
}

// Total returns the total weight in the matrix: Σw over every network,
// however observed.
func (tm *TransitionMatrix) Total() float64 {
	var sum float64
	for _, v := range tm.counts {
		sum += v
	}
	return sum
}

// Stayed returns the total weight on the diagonal, excluding the
// unknown→unknown cell (networks never observed tell us nothing about
// stability).
func (tm *TransitionMatrix) Stayed() float64 {
	var sum float64
	u, hasUnknown := tm.index[UnknownLabel]
	for k, v := range tm.counts {
		if k[0] == k[1] && (!hasUnknown || k[0] != u) {
			sum += v
		}
	}
	return sum
}

// Row returns the distribution out of a site: where its networks went.
func (tm *TransitionMatrix) Row(from string) map[string]float64 {
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
	for key, v := range tm.counts {
		if key[0] == key[1] || v <= 0 {
			continue
		}
		f := Flow{From: tm.Sites[key[0]], To: tm.Sites[key[1]], Count: v}
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
