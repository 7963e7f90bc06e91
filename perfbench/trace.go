package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span times one call into a layer from the benchmark's side. Spans of
// one op or request share a trace id; a child names its parent.
type span struct {
	name      string
	trace, id uint64
	parent    uint64 // 0 for the op's root span
	start     time.Time
	dur       time.Duration
}

// tracer holds every span in memory until the run ends.
type tracer struct {
	origin      time.Time
	spans       []*span
	traces, ids uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span; a nil parent starts a new trace.
func (t *tracer) begin(name string, parent *span) *span {
	t.ids++
	s := &span{name: name, id: t.ids}
	if parent == nil {
		t.traces++
		s.trace = t.traces
	} else {
		s.trace, s.parent = parent.trace, parent.id
	}
	t.spans = append(t.spans, s)
	s.start = time.Now()
	return s
}

func (s *span) end() time.Duration {
	s.dur = time.Since(s.start)
	return s.dur
}

// op groups the layer calls of one op under a root span when traced;
// an untraced op makes the same calls without recording anything.
type op struct {
	tr   *tracer
	root *span
}

func (t *tracer) op(name string, traced bool) *op {
	if !traced {
		return &op{}
	}
	return &op{tr: t, root: t.begin(name, nil)}
}

// step runs fn, timed as a child span of the op when traced; it returns
// the span's duration, or 0 when untraced.
func (o *op) step(name string, fn func()) time.Duration {
	if o.root == nil {
		fn()
		return 0
	}
	sp := o.tr.begin(name, o.root)
	fn()
	return sp.end()
}

func (o *op) end() time.Duration {
	if o.root == nil {
		return 0
	}
	return o.root.end()
}

// writeChrome writes the spans as Chrome trace-event JSON (load in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	type ev struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint64 `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		enc.Encode(ev{ //nolint:errcheck // a write error surfaces at Flush
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   us(s.start.Sub(t.origin)),
			Dur:  us(s.dur),
			Args: map[string]uint64{"trace_id": s.trace, "span_id": s.id, "parent_id": s.parent},
		})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
