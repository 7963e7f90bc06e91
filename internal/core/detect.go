package core

import (
	"cmp"
	"fmt"
	"slices"

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
	// verdict (see explain.go). DetectChanges and Monitor.Append always
	// fill it, Monitor.Events on request; batch and streaming runs
	// produce byte-identical explanations.
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

// detector is DetectChanges' scan state as an explicit state machine
// over vectors addressed by row index, so one loop (scan) serves the
// batch run, the streaming Monitor's append (one new row per call), its
// rebuild after an eviction or restore, and its event reads. Batch and
// stream share this exact code — equivalence is by construction, and
// pinned by tests against same-seed series.
type detector struct {
	opts DetectOptions
	// history holds the trailing adjacent-pair similarities (at most
	// opts.Window) as a ring: in arrival order until it is full, and from
	// then on starting at head, the oldest, which the next push replaces.
	// sorted holds the same values ascending, equal values in arrival
	// order — exactly the stable sort of the window — so the baseline
	// median is read off it instead of recomputed. Both buffers grow with
	// use, never with opts.Window (which may come from an API request or
	// a snapshot), and are reused across rebuilds.
	history  []float64
	head     int
	sorted   []float64
	cooldown int
	// centroids are the rows of the scanned vectors standing for each
	// routing mode seen so far, in order of first appearance: the state
	// that turns a bare (epoch, Φ) event into an explained one (recur).
	centroids []int
}

// newDetector applies the same defaulting DetectChanges always did.
func newDetector(opts DetectOptions) *detector {
	if opts.Window <= 0 {
		opts.Window = 30
	}
	if opts.MinDrop <= 0 {
		opts.MinDrop = 0.05
	}
	return &detector{opts: opts}
}

// reset clears the baseline at a collection gap: routing may
// legitimately differ across an outage without that being an "event" at
// this timescale. The mode centroids survive the gap — recognizing a
// pre-outage mode on the far side is precisely the recurrence the
// provenance layer labels.
func (d *detector) reset() {
	d.history = d.history[:0]
	d.head = 0
	d.sorted = d.sorted[:0]
	d.cooldown = 0
}

// clearAll returns the detector to its freshly constructed state,
// centroid memory included, keeping its buffers.
func (d *detector) clearAll() {
	d.reset()
	d.centroids = d.centroids[:0]
}

// hit is a change event as scan finds it: the changed pair's vectors,
// its Φ, the trailing baseline and the recurrence verdict. Its
// ChangeEvent, Explanation included, is built only for the events a
// caller returns (see event). A hit holds the vectors themselves, not
// their rows, so it stays valid after a monitor evicts those rows.
type hit struct {
	prev, cur     *Vector
	phi, baseline float64
	v             verdict
}

// scan advances the detector over rows from, from+1, … of vs, each
// against the row before it: the one loop that DetectChanges,
// Monitor.Append, the monitor's rebuild and its event reads all run.
// epochs[i] is row i's epoch and adj[i] its detection Φ against row i−1,
// read only when the two epochs are adjacent; a collection gap resets
// the baseline. rowPhi(i, j) is the detection Φ between any rows i and j,
// which the recurrence check asks of the mode centroids. emit, when
// non-nil, receives each event. The scan builds no Explanation and, once
// the detector's buffers are warm, allocates nothing.
func (d *detector) scan(vs []*Vector, epochs []timeline.Epoch, adj []float64, from int, rowPhi func(i, j int) float64, emit func(hit)) {
	for i := max(from, 1); i < len(epochs); i++ {
		if epochs[i] != epochs[i-1]+1 {
			d.reset()
			continue
		}
		// The first vector of the first adjacent pair is mode 1's centroid.
		if len(d.centroids) == 0 {
			d.centroids = append(d.centroids, i-1)
		}
		phi, baseline := adj[i], d.median()
		if len(d.history) >= 3 && d.cooldown == 0 && baseline-phi >= d.opts.MinDrop {
			d.cooldown = d.opts.Cooldown
			// Do not feed the anomalous pair into the baseline; the next
			// pairs (new-mode internal similarity) re-establish it.
			v := d.recur(i, phi, baseline, rowPhi)
			if emit != nil {
				emit(hit{prev: vs[i-1], cur: vs[i], phi: phi, baseline: baseline, v: v})
			}
			continue
		}
		// The cooldown counts down only on non-event iterations, so
		// Cooldown: N suppresses detection for exactly the N epochs
		// following an event.
		if d.cooldown > 0 {
			d.cooldown--
		}
		d.push(phi)
	}
}

// event renders h as a ChangeEvent, with its Explanation (ranked by the
// weights w) when explain is set.
func (h hit) event(w []float64, explain bool) ChangeEvent {
	ev := ChangeEvent{At: h.cur.T, Phi: h.phi, Baseline: h.baseline, Magnitude: h.baseline - h.phi}
	if explain {
		ev.Explanation = newExplanation(h.prev, h.cur, w, h.v)
	}
	return ev
}

// push appends phi to the baseline window, retiring the oldest value
// once the window is full. A value is inserted after its equals and
// retired from the front of its equals, so sorted stays the stable sort
// of the window (ordered by cmp.Less, which puts NaN first, so even a
// NaN is inserted and retired consistently). A full window's push
// overwrites the ring's oldest slot and moves only the sorted values
// between the retired one and the new one's place, in one copy.
func (d *detector) push(phi float64) {
	s := d.sorted
	i := upperBound(s, phi)
	if len(d.history) < d.opts.Window {
		d.history = append(d.history, phi)
		d.sorted = slices.Insert(s, i, phi)
		return
	}
	old := d.history[d.head]
	d.history[d.head] = phi
	if d.head++; d.head == len(d.history) {
		d.head = 0
	}
	// old is the first of its equals, at j; phi goes after its equals,
	// at i, counted before old leaves.
	if j := lowerBound(s, old); i <= j {
		copy(s[i+1:j+1], s[i:j])
		s[i] = phi
	} else {
		copy(s[j:i-1], s[j+1:i])
		s[i-1] = phi
	}
}

// upperBound returns the index of the first value of s, ascending in
// cmp.Less order, that sorts after x.
func upperBound(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); cmp.Less(x, s[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// lowerBound returns the index of the first value of s, ascending in
// cmp.Less order, that does not sort before x.
func lowerBound(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); cmp.Less(s[m], x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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
// scalar drop meaningful, not the change-point statistics. Φ is the
// scalar Gower; DetectChangesMatrix reads it from a matrix already built.
func DetectChanges(s *Series, w []float64, opts DetectOptions) []ChangeEvent {
	vs := s.Vectors
	return detectChanges(vs, w, opts, func(i, j int) float64 { return Gower(vs[i], vs[j], w, opts.Mode) })
}

// DetectChangesMatrix is DetectChanges over the similarity matrix m of s,
// computed with the weights w and the unknown mode mode. When opts.Mode is
// mode, the scan reads Φ from m, which the packed kernels filled
// bit-identical to Gower, so the events equal DetectChanges' bit for bit;
// this is the rule the Monitor applies to its cached Φ. Otherwise an entry
// of m is not the detection Φ, and it runs DetectChanges.
func DetectChangesMatrix(s *Series, m *SimMatrix, mode UnknownMode, w []float64, opts DetectOptions) []ChangeEvent {
	if opts.Mode != mode {
		return DetectChanges(s, w, opts)
	}
	if m.N != len(s.Vectors) {
		panic(fmt.Sprintf("core: matrix of %d rows for a series of %d vectors", m.N, len(s.Vectors)))
	}
	return detectChanges(s.Vectors, w, opts, m.At)
}

// detectChanges runs a fresh detector over vs with the detection Φ
// rowPhi and explains every event it fires. The epochs and the
// adjacent-pair Φ the scan reads are built once, up front, Φ only across
// adjacent epochs: the pairs the scan decides on.
func detectChanges(vs []*Vector, w []float64, opts DetectOptions, rowPhi func(i, j int) float64) []ChangeEvent {
	epochs := make([]timeline.Epoch, len(vs))
	adj := make([]float64, len(vs))
	for i, v := range vs {
		epochs[i] = v.T
		if i > 0 && v.T == vs[i-1].T+1 {
			adj[i] = rowPhi(i, i-1)
		}
	}
	var events []ChangeEvent
	newDetector(opts).scan(vs, epochs, adj, 1, rowPhi, func(h hit) { events = append(events, h.event(w, true)) })
	return events
}
