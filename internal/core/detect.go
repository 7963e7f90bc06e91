package core

import (
	"cmp"
	"slices"
	"sort"

	"fenrir/internal/timeline"
)

// ChangeEvent is a detected routing change: the similarity between two
// adjacent observations fell below what the recent past predicts.
type ChangeEvent struct {
	// At is the epoch of the second vector of the changed pair: the first
	// observation showing the new routing result.
	At timeline.Epoch
	// Phi is the adjacent-pair similarity that triggered detection.
	Phi float64
	// Baseline is the trailing-window reference similarity.
	Baseline float64
	// Magnitude is Baseline − Phi: how much more changed than usual.
	Magnitude float64
	// Explanation is the event's provenance: contributing networks,
	// site weight flows, unknown-mass accounting, and the recurrence
	// verdict. Always populated by the detector (see explain.go);
	// batch and streaming runs produce byte-identical explanations.
	Explanation *Explanation
}

// DetectOptions tunes adjacent-pair change detection (§3's "examining
// transitions in vector matrices every four minutes").
type DetectOptions struct {
	// Window is the number of trailing adjacent-pair similarities used as
	// the stability baseline (their median).
	Window int
	// MinDrop is the minimum Baseline − Phi to flag an event. The
	// validation study calibrates this against ground truth.
	MinDrop float64
	// Mode selects unknown handling for the pairwise Φ.
	Mode UnknownMode
	// Cooldown suppresses re-triggering for this many epochs after an
	// event, mirroring the ground-truth grouping of multi-step
	// maintenance into one operational event.
	Cooldown int
}

// DefaultDetectOptions returns the configuration used for the Table 4
// validation.
func DefaultDetectOptions() DetectOptions {
	return DetectOptions{Window: 30, MinDrop: 0.05, Mode: PessimisticUnknown, Cooldown: 2}
}

// detector is the scan state of DetectChanges factored into an explicit
// state machine, so the streaming Monitor can advance it one adjacent
// pair per append instead of replaying the whole batch scan over the
// full history every epoch. Batch and stream share this exact code —
// equivalence is by construction, and pinned by tests against same-seed
// series.
type detector struct {
	opts DetectOptions
	// history holds the trailing adjacent-pair similarities in arrival
	// order (at most opts.Window), and sorted the same values ascending,
	// equal values in arrival order — exactly the stable sort of history,
	// so the baseline median is read off it instead of recomputed. Both
	// buffers grow with use, never with opts.Window (which may come from
	// an API request or a snapshot), and are reused across rebuilds.
	history  []float64
	sorted   []float64
	cooldown int
	// ex carries the provenance state (mode centroids) that turns a
	// bare (epoch, Φ) event into an explained one.
	ex explainer
}

// newDetector applies the same defaulting DetectChanges always did.
// w is the per-network weight vector the explanations rank by (nil for
// uniform); it must be the same vector detection Φ is computed with.
func newDetector(opts DetectOptions, w []float64) *detector {
	if opts.Window <= 0 {
		opts.Window = 30
	}
	if opts.MinDrop <= 0 {
		opts.MinDrop = 0.05
	}
	return &detector{
		opts: opts,
		ex: explainer{w: w, phi: func(cur, c *Vector) float64 {
			return Gower(cur, c, w, opts.Mode)
		}},
	}
}

// reset clears the baseline at a collection gap: routing may
// legitimately differ across an outage without that being an "event" at
// this timescale. The explainer's mode centroids survive the gap —
// recognizing a pre-outage mode on the far side is precisely the
// recurrence the provenance layer labels.
func (d *detector) reset() {
	d.history = d.history[:0]
	d.sorted = d.sorted[:0]
	d.cooldown = 0
}

// clearAll returns the detector to its freshly constructed state,
// centroid memory included, keeping its buffers.
func (d *detector) clearAll() {
	d.reset()
	clear(d.ex.centroids)
	d.ex.centroids = d.ex.centroids[:0]
}

// step consumes one adjacent pair (prev, cur) with its similarity phi,
// and reports whether that pair constitutes a change event, with its
// Explanation. The vectors are only read when an event fires, so the
// stable-path cost is unchanged.
func (d *detector) step(prev, cur *Vector, phi float64) (ChangeEvent, bool) {
	baseline, v, fired := d.decide(prev, cur, phi)
	if !fired {
		return ChangeEvent{}, false
	}
	return ChangeEvent{
		At:          cur.T,
		Phi:         phi,
		Baseline:    baseline,
		Magnitude:   baseline - phi,
		Explanation: d.ex.explain(prev, cur, v),
	}, true
}

// decide advances the state machine by one adjacent pair: the baseline
// window, the cooldown, and, when the pair fires, the recurrence verdict
// (which registers a novel state's centroid). It builds no Explanation
// and allocates nothing, so a monitor replaying its window through it
// pays only the decisions.
func (d *detector) decide(prev, cur *Vector, phi float64) (baseline float64, v verdict, fired bool) {
	d.ex.observe(prev)
	baseline = d.median()
	if len(d.history) >= 3 && d.cooldown == 0 && baseline-phi >= d.opts.MinDrop {
		d.cooldown = d.opts.Cooldown
		// Do not feed the anomalous pair into the baseline; the next
		// pairs (new-mode internal similarity) re-establish it.
		return baseline, d.ex.recur(cur, phi, baseline), true
	}
	// The cooldown counts down only on non-event iterations, so
	// Cooldown: N suppresses detection for exactly the N epochs
	// following an event.
	if d.cooldown > 0 {
		d.cooldown--
	}
	d.push(phi)
	return baseline, verdict{}, false
}

// push appends phi to the baseline window, retiring the oldest value
// once the window is full. A value is inserted after its equals and
// retired from the front of its equals, so sorted stays the stable sort
// of history (ordered by cmp.Less, which puts NaN first, so even a NaN
// is inserted and retired consistently).
func (d *detector) push(phi float64) {
	d.history = append(d.history, phi)
	i := sort.Search(len(d.sorted), func(i int) bool { return cmp.Less(phi, d.sorted[i]) })
	d.sorted = slices.Insert(d.sorted, i, phi)
	if len(d.history) > d.opts.Window {
		old := d.history[0]
		d.history = append(d.history[:0], d.history[1:]...)
		j := sort.Search(len(d.sorted), func(j int) bool { return !cmp.Less(d.sorted[j], old) })
		d.sorted = slices.Delete(d.sorted, j, j+1)
	}
}

// median returns the median of the baseline window (0 when empty).
func (d *detector) median() float64 {
	n := len(d.sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d.sorted[n/2]
	}
	return (d.sorted[n/2-1] + d.sorted[n/2]) / 2
}

// DetectChanges scans a series for routing change events. It computes
// Φ(t, t+1) for every adjacent observed pair (collection gaps break
// adjacency) and flags epochs where similarity drops at least MinDrop
// below the median of the trailing window. The detector is deliberately
// simple — the paper's contribution is the vector encoding that makes a
// scalar drop meaningful, not the change-point statistics.
func DetectChanges(s *Series, w []float64, opts DetectOptions) []ChangeEvent {
	d := newDetector(opts, w)
	var events []ChangeEvent
	for i := 0; i+1 < len(s.Vectors); i++ {
		a, b := s.Vectors[i], s.Vectors[i+1]
		if b.T != a.T+1 {
			d.reset()
			continue
		}
		if ev, ok := d.step(a, b, Gower(a, b, w, opts.Mode)); ok {
			events = append(events, ev)
		}
	}
	return events
}
