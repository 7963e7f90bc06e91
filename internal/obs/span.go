package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// StageRecord is one completed span: a named pipeline stage with its
// wall duration and optional work attributes. Records are what the run
// manifest serializes.
type StageRecord struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Items is how many units of work the stage processed (epochs
	// observed, matrix pairs filled, merges scanned); 0 when untracked.
	Items int64 `json:"items,omitempty"`
	// Workers is the stage's goroutine-pool size; 0 when serial or
	// untracked.
	Workers int `json:"workers,omitempty"`
}

// Span measures one pipeline stage from StartSpan to End using the
// monotonic clock. A span from a nil registry is nil, and every method
// on a nil *Span is a no-op, so callers instrument unconditionally.
//
// Spans form a tree when tracing is on (see BeginTrace): StartSpan spans
// hang off the run root, and Span.Child opens arbitrarily deep children
// carrying attributes (SetAttr) and export lanes (SetLane). Only
// top-level spans — the classic pipeline stages — feed StageRecords and
// the per-stage duration histogram; children exist solely in the trace
// tree, so per-tile and per-epoch instrumentation never distorts the
// manifest's stage accounting.
type Span struct {
	r       *Registry
	name    string
	start   time.Time
	items   atomic.Int64
	workers int
	ended   atomic.Bool

	// stage marks spans opened with StartSpan, the only ones that feed
	// StageRecords; the trace root and Span.Child spans are trace-only.
	stage bool

	// Trace-tree identity: id/parent place the span in the tree, lane
	// picks its export track, attrs carry key=value annotations.
	id     int64
	parent *Span
	lane   int
	attrMu sync.Mutex
	attrs  []Attr
}

// StartSpan opens a span for the named stage. On a nil registry it
// returns nil, the no-op span. While a trace is active the span becomes
// a child of the run root.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{r: r, name: name, start: time.Now(), stage: true}
	r.mu.Lock()
	r.nextSpanID++
	sp.id = r.nextSpanID
	sp.parent = r.root
	r.mu.Unlock()
	return sp
}

// SetItems records how many work units the stage processed.
func (s *Span) SetItems(n int64) {
	if s == nil {
		return
	}
	s.items.Store(n)
}

// AddItems accumulates processed work units (safe from workers).
func (s *Span) AddItems(n int64) {
	if s == nil {
		return
	}
	s.items.Add(n)
}

// SetWorkers records the stage's worker-pool size.
func (s *Span) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.workers = n
}

// End closes the span, records it in the registry, and returns the
// stage duration. Safe to call more than once (later calls are no-ops)
// and on a nil span (returns 0).
//
// A StartSpan span (no parent, or a direct child of the trace root)
// appends a StageRecord and observes its duration in
// fenrir_stage_duration_seconds{stage}. Spans opened with Child — and
// the root itself — land only in the trace ring, no matter where they
// sit.
func (s *Span) End() time.Duration {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	d := time.Since(s.start)
	if s.stage {
		rec := StageRecord{
			Name:    s.name,
			Seconds: d.Seconds(),
			Items:   s.items.Load(),
			Workers: s.workers,
		}
		s.r.mu.Lock()
		s.r.spans = append(s.r.spans, rec)
		s.r.mu.Unlock()
		// The histogram's _count and _sum are the stage's runs and
		// seconds; no other metric repeats them.
		s.r.Histogram(`fenrir_stage_duration_seconds{stage="` + s.name + `"}`).Observe(d.Seconds())
	}
	if s.r.traceOn.Load() {
		rec := s.traceRecord(d)
		s.r.mu.Lock()
		s.r.trace.Push(rec)
		s.r.mu.Unlock()
	}
	return d
}

// Spans returns a copy of all completed stage records in End order.
// Returns nil on a nil registry.
func (r *Registry) Spans() []StageRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StageRecord(nil), r.spans...)
}

// StageSummary folds completed spans by stage name (first-End order),
// summing seconds and items and keeping the widest worker pool — the
// per-stage rollup the manifest stores. Returns nil on a nil registry.
func (r *Registry) StageSummary() []StageRecord {
	spans := r.Spans()
	if spans == nil {
		return nil
	}
	idx := make(map[string]int)
	var out []StageRecord
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			idx[s.Name] = len(out)
			out = append(out, s)
			continue
		}
		out[i].Seconds += s.Seconds
		out[i].Items += s.Items
		if s.Workers > out[i].Workers {
			out[i].Workers = s.Workers
		}
	}
	return out
}
