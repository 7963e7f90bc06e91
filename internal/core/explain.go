package core

import "fmt"

// Explanation bounds: fixed rather than configurable so every event's
// explanation has the same deterministic cost in batch and streaming
// runs, and so DetectOptions (persisted by the snapshot codec) does not
// grow wire fields for what is purely presentation depth.
const (
	// explainTopContributors caps the per-event contributor list.
	explainTopContributors = 8
	// explainTopFlows caps the per-event site-flow list.
	explainTopFlows = 5
	// explainMaxModes caps the centroid memory of the recurrence
	// tracker. Once full, further novel states are still labeled novel
	// but are not registered (MatchedMode 0), bounding per-event cost at
	// O(modes × networks) forever.
	explainMaxModes = 64
)

// Contributor is one network's part in a change event: where it was,
// where it went, and how much weight it carried. Unknown assignments
// surface as UnknownLabel, matching the transition-matrix axis.
type Contributor struct {
	Network string
	From    string
	To      string
	Weight  float64
}

// Explanation is the provenance attached to every ChangeEvent: which
// networks moved where, how the weight mass flowed between sites, how
// much of the change is really a visibility change (unknown mass), and
// whether the new routing state is a rediscovered prior mode or novel.
// It is built from the event's adjacent vector pair and the recurrence
// verdict of the one detector scan, so batch DetectChanges, streaming
// Monitor.Append and Monitor.Events produce byte-identical explanations
// by construction.
type Explanation struct {
	// Contributors are the top networks whose assignment changed across
	// the event pair, ranked by weight (ties broken by network row
	// order). At most explainTopContributors entries.
	Contributors []Contributor
	// ChangedCount and ChangedWeight cover every changed network, not
	// just the listed contributors.
	ChangedCount  int
	ChangedWeight float64

	// Site-to-site weight flow summary over the event pair, the §2.7
	// transition-matrix partition: Moved + Stayed + Unobserved = Total.
	Moved      float64
	Stayed     float64
	Unobserved float64
	Total      float64
	// TopFlows are the largest site→site flows (core.Transition's
	// LargestFlows), at most explainTopFlows entries.
	TopFlows []Flow

	// Unknown-mass accounting: weight that left the measurement
	// (known→unknown) and weight that entered it (unknown→known) across
	// the pair. Both are part of Unobserved.
	WentUnknown float64
	BecameKnown float64

	// Recurrence verdict: the new state is compared by Φ against the
	// centroid (first vector) of every mode seen so far. Recurrence is
	// true when the best match recovers more than half the change
	// magnitude — ModePhi ≥ (Baseline + Phi)/2 — meaning the new state
	// sits significantly closer to a known regime than to the state it
	// just left.
	Recurrence bool
	// MatchedMode is the 1-based id of the matched prior mode when
	// Recurrence is true, or the id assigned to the newly registered
	// mode when novel (0 if the centroid memory is full).
	MatchedMode int
	// ModePhi is Φ against the matched centroid (recurrence) or the
	// nearest prior centroid (novel).
	ModePhi float64
	// ModeCount is the number of known modes after this event.
	ModeCount int
}

// Label renders the recurrence verdict the way reports print it:
// "recurrence-of mode 2 (Φ=0.97)" or "novel (mode 3, nearest Φ=0.41)".
func (e *Explanation) Label() string {
	if e.Recurrence {
		return fmt.Sprintf("recurrence-of mode %d (Φ=%.2f)", e.MatchedMode, e.ModePhi)
	}
	if e.MatchedMode == 0 {
		return fmt.Sprintf("novel (unregistered, nearest Φ=%.2f)", e.ModePhi)
	}
	return fmt.Sprintf("novel (mode %d, nearest Φ=%.2f)", e.MatchedMode, e.ModePhi)
}

// TopFlow returns the largest site→site flow of the event, the headline
// an operator reads first ("STR → NAP, 3097 networks"). ok is false when
// no weight verifiably moved between observed sites.
func (e *Explanation) TopFlow() (Flow, bool) {
	if len(e.TopFlows) == 0 {
		return Flow{}, false
	}
	return e.TopFlows[0], true
}

// verdict is the recurrence decision for an event's new state, the part
// of an Explanation that feeds back into detector state.
type verdict struct {
	recurrence bool
	mode       int     // Explanation.MatchedMode
	phi        float64 // Explanation.ModePhi
	modes      int     // Explanation.ModeCount
}

// recur decides whether the state at row cur, reached by an event of
// similarity phi against the given trailing baseline, recurs to a known
// mode, and registers it as a new mode if not. Mode 1's centroid is the
// first vector of the scan's first adjacent pair; each novel event
// registers the first vector of its new regime. Collection gaps reset
// the detection baseline but not the centroid memory — recognizing a
// mode across an outage is exactly the recurrence the paper is after.
// Nearest centroid by rowPhi, strict > so ties resolve to the earliest
// mode. The bar is the midpoint between the trailing baseline (how alike
// the old regime was to itself) and the event similarity (how far the
// state just jumped): a prior mode matching above it has recovered more
// than half the change, so the state is closer to a known regime than to
// the one it left.
func (d *detector) recur(cur int, phi, baseline float64, rowPhi func(i, j int) float64) verdict {
	best, bestPhi := -1, 0.0
	for i, c := range d.centroids {
		if p := rowPhi(cur, c); best == -1 || p > bestPhi {
			best, bestPhi = i, p
		}
	}
	v := verdict{phi: bestPhi}
	if best >= 0 && bestPhi >= (baseline+phi)/2 {
		v.recurrence = true
		v.mode = best + 1
	} else if len(d.centroids) < explainMaxModes {
		d.centroids = append(d.centroids, cur)
		v.mode = len(d.centroids)
	}
	v.modes = len(d.centroids)
	return v
}

// newExplanation builds the Explanation for an event over the adjacent
// pair (prev, cur) around its recurrence verdict vd, ranked by the
// weights w. Every accumulation iterates networks in row order, as
// Transition does for the masses it returns — float summation order is
// part of the byte-identical batch/stream contract.
func newExplanation(prev, cur *Vector, w []float64, vd verdict) *Explanation {
	tm := Transition(prev, cur, w)
	e := &Explanation{
		Moved:       tm.Moved(),
		Stayed:      tm.Stayed(),
		Unobserved:  tm.Unobserved(),
		Total:       tm.Total(),
		TopFlows:    tm.LargestFlows(explainTopFlows),
		Recurrence:  vd.recurrence,
		MatchedMode: vd.mode,
		ModePhi:     vd.phi,
		ModeCount:   vd.modes,
	}
	// top keeps the explainTopContributors heaviest changed rows, weight
	// descending with ties in row order, by bounded insertion: rows
	// arrive in row order, so a newcomer goes after every kept row of
	// equal weight.
	type changed struct {
		row int
		w   float64
	}
	var top [explainTopContributors]changed
	kept := 0
	for n := 0; n < prev.Space.NumNetworks(); n++ {
		wi := 1.0
		if w != nil {
			wi = w[n]
		}
		from, to := prev.Get(n), cur.Get(n)
		switch {
		case from == Unknown && to != Unknown:
			e.BecameKnown += wi
		case from != Unknown && to == Unknown:
			e.WentUnknown += wi
		}
		if from != to {
			e.ChangedCount++
			e.ChangedWeight += wi
			i := kept
			for i > 0 && top[i-1].w < wi {
				i--
			}
			if i < len(top) {
				kept = min(kept+1, len(top))
				copy(top[i+1:kept], top[i:kept-1])
				top[i] = changed{row: n, w: wi}
			}
		}
	}
	if kept > 0 {
		e.Contributors = make([]Contributor, 0, kept)
	}
	for _, c := range top[:kept] {
		e.Contributors = append(e.Contributors, Contributor{
			Network: prev.Space.Network(c.row),
			From:    siteLabel(prev, c.row),
			To:      siteLabel(cur, c.row),
			Weight:  c.w,
		})
	}
	return e
}

// siteLabel is v's site for network n, UnknownLabel when unset.
func siteLabel(v *Vector, n int) string {
	if site, ok := v.Site(n); ok {
		return site
	}
	return UnknownLabel
}
