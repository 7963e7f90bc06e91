package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Trace trees extend stage spans into a hierarchy: a per-run root span
// with named, attributed children at any depth (per-tile similarity
// fills, per-iteration cluster sweeps, per-epoch ingests, per-request
// serves). The tree is recorded into a bounded ring and exported as
// Chrome trace-event JSON — loadable in Perfetto or chrome://tracing —
// whose structure (names, parents, attributes, sibling order) is
// deterministic for a fixed seed: only timestamps, durations, and lane
// assignments vary between runs.
//
// Recording is off until BeginTrace: Span.Child returns nil (the no-op
// span) on an untraced registry, so the per-tile and per-epoch
// instrumentation points cost one atomic load when tracing is off.

// Attr is one span or event attribute. Values are pre-rendered to
// strings so the trace tree and flight-recorder events are plain data.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// attrValue renders an attribute value deterministically.
func attrValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case time.Duration:
		return x.String()
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprint(x)
	}
}

// TraceRecord is one completed span in the trace ring: identity, tree
// position, wall interval, and attributes.
type TraceRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = top level
	Name   string `json:"name"`
	// Lane is the export track (0 = the main serial lane; similarity
	// workers claim lanes 1..P so concurrent tiles don't overlap).
	Lane    int    `json:"lane"`
	StartNS int64  `json:"start_ns"` // monotonic, relative to registry start
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// attrKey serializes a record's attributes into one sortable string.
func (t *TraceRecord) attrKey() string {
	if len(t.Attrs) == 0 {
		return ""
	}
	parts := make([]string, len(t.Attrs))
	for i, a := range t.Attrs {
		parts[i] = a.Key + "=" + a.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// traceCap bounds the trace ring: a batch run's full tree fits well
// under it, and a long-lived daemon keeps the most recent spans instead
// of growing without bound.
const traceCap = 1 << 16

// BeginTrace enables trace recording and opens the run's root span. All
// subsequent top-level StartSpan spans become children of the root, and
// Span.Child starts returning live spans. Returns nil on a nil registry.
// Calling BeginTrace again replaces the root (the prior tree stays in
// the ring).
func (r *Registry) BeginTrace(name string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{r: r, name: name, start: time.Now(), id: r.nextSpanID.Add(1)}
	r.root.Store(sp)
	return sp
}

// TraceRoot returns the active root span (nil when not tracing), so
// request paths far from the run entry point can attach children.
func (r *Registry) TraceRoot() *Span {
	if r == nil {
		return nil
	}
	return r.root.Load()
}

// Child opens a sub-span under s. Children exist only while tracing: on
// a nil span, a nil registry, or an untraced registry Child returns nil,
// whose every method is a no-op — instrumentation points in hot loops
// pay one atomic load when tracing is off. Children never become
// StageRecords, even directly under the root — a daemon attaching one
// per request must not grow the stage log — so they live solely in the
// bounded trace ring.
func (s *Span) Child(name string) *Span {
	if s == nil || s.r.root.Load() == nil {
		return nil
	}
	return &Span{r: s.r, name: name, start: time.Now(), parent: s, lane: s.lane,
		id: s.r.nextSpanID.Add(1)}
}

// SetAttr attaches a key/value attribute to the span; values are
// rendered to strings deterministically. No-op on a nil span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	v := attrValue(value)
	s.attrMu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			s.attrMu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.attrMu.Unlock()
}

// SetLane assigns the span's export track; similarity workers use their
// worker index so concurrent tiles land on separate tracks. No-op on a
// nil span.
func (s *Span) SetLane(n int) {
	if s == nil {
		return
	}
	s.lane = n
}

// traceRecord captures the span as a TraceRecord; callers have checked
// that tracing is on.
func (s *Span) traceRecord(d time.Duration) TraceRecord {
	var parent int64
	if s.parent != nil {
		parent = s.parent.id
	}
	s.attrMu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	s.attrMu.Unlock()
	if n := s.items.Load(); n != 0 {
		attrs = append(attrs, Attr{Key: "items", Value: strconv.FormatInt(n, 10)})
	}
	if s.workers != 0 {
		attrs = append(attrs, Attr{Key: "workers", Value: strconv.Itoa(s.workers)})
	}
	return TraceRecord{
		ID:      s.id,
		Parent:  parent,
		Name:    s.name,
		Lane:    s.lane,
		StartNS: s.start.Sub(s.r.start).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
		Attrs:   attrs,
	}
}

// TraceEvicted returns how many completed spans the trace ring has
// overwritten since creation — nonzero means an exported trace is
// missing its oldest spans. Returns 0 on a nil registry.
func (r *Registry) TraceEvicted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.Evicted()
}

// FlightEvicted returns how many events the flight-recorder ring has
// overwritten since creation. Returns 0 on a nil registry.
func (r *Registry) FlightEvicted() uint64 {
	if r == nil {
		return 0
	}
	return r.flight.Evicted()
}

// TraceRecords returns the ring's completed spans, oldest first. Returns
// nil on a nil registry.
func (r *Registry) TraceRecords() []TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.Items()
}

// traceNode is one span while the exporter rebuilds the tree.
type traceNode struct {
	rec      TraceRecord
	children []*traceNode
}

func (n *traceNode) sortKey() string {
	return n.rec.Name + "\x00" + n.rec.attrKey()
}

// sortTree orders siblings canonically — by name, then attribute set,
// then original creation order — so two runs of the same seed export the
// identical event sequence even when workers completed tiles in a
// different order.
func sortTree(nodes []*traceNode) {
	sort.SliceStable(nodes, func(a, b int) bool {
		ka, kb := nodes[a].sortKey(), nodes[b].sortKey()
		if ka != kb {
			return ka < kb
		}
		return nodes[a].rec.ID < nodes[b].rec.ID
	})
	for _, n := range nodes {
		sortTree(n.children)
	}
}

// traceEvent is one Chrome trace-event JSON object. Only "X" (complete)
// and "M" (metadata) phases are emitted.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the exported document shape.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// buildTraceTree assembles the current ring (plus the still-open root,
// if any) into sorted top-level nodes.
func (r *Registry) buildTraceTree() []*traceNode {
	recs := r.TraceRecords()
	if root := r.root.Load(); root != nil && !root.ended.Load() {
		// A live trace (the serve daemon, or an export mid-run): include
		// the open root so its finished children have a parent.
		recs = append(recs, root.traceRecord(time.Since(root.start)))
	}
	byID := make(map[int64]*traceNode, len(recs))
	nodes := make([]*traceNode, len(recs))
	for i := range recs {
		n := &traceNode{rec: recs[i]}
		nodes[i] = n
		byID[recs[i].ID] = n
	}
	var top []*traceNode
	for _, n := range nodes {
		if p, ok := byID[n.rec.Parent]; ok && p != n {
			p.children = append(p.children, n)
		} else {
			// Top level, or the parent was evicted from the ring.
			top = append(top, n)
		}
	}
	sortTree(top)
	return top
}

// WriteTrace exports the trace tree as Chrome trace-event JSON (the
// "JSON object format" with a traceEvents array; load the file in
// Perfetto or chrome://tracing). Events appear in canonical tree order
// with canonical ids, so two traces of the same seeded run differ only
// in ts/dur values and lane (tid) assignment. No-op on a nil registry.
func (r *Registry) WriteTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`+"\n")
		return err
	}
	top := r.buildTraceTree()

	var events []traceEvent
	lanes := map[int]bool{}
	var nextID int64
	var emit func(n *traceNode, parent int64)
	emit = func(n *traceNode, parent int64) {
		nextID++
		id := nextID
		args := map[string]any{"id": id, "parent": parent}
		for _, a := range n.rec.Attrs {
			args[a.Key] = a.Value
		}
		lanes[n.rec.Lane] = true
		events = append(events, traceEvent{
			Name: n.rec.Name,
			Ph:   "X",
			Ts:   float64(n.rec.StartNS) / 1e3,
			Dur:  float64(n.rec.DurNS) / 1e3,
			Pid:  1,
			Tid:  n.rec.Lane + 1,
			Args: args,
		})
		for _, c := range n.children {
			emit(c, id)
		}
	}
	for _, n := range top {
		emit(n, 0)
	}

	// Metadata events name the process and each lane, so Perfetto shows
	// "main" and "worker-N" tracks instead of bare thread ids.
	meta := []traceEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "fenrir"},
	}}
	laneIDs := make([]int, 0, len(lanes))
	for l := range lanes {
		laneIDs = append(laneIDs, l)
	}
	sort.Ints(laneIDs)
	for _, l := range laneIDs {
		name := "main"
		if l > 0 {
			name = fmt.Sprintf("worker-%d", l)
		}
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: l + 1,
			Args: map[string]any{"name": name},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{DisplayTimeUnit: "ms", TraceEvents: append(meta, events...)})
}

// WriteTraceFile writes the trace to path (see WriteTrace).
func WriteTraceFile(path string, r *Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return f.Close()
}

// TraceHandler serves the trace tree as Chrome trace-event JSON — the
// /debug/trace endpoint.
func TraceHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteTrace(w) //nolint:errcheck // client went away
	})
}
