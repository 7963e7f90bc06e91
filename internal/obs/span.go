package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// StageRecord is one pipeline stage's rollup: its name, the wall
// seconds and work items its spans summed, and the widest worker pool
// any of them used. Records are what the run manifest serializes.
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
	return &Span{r: r, name: name, start: time.Now(), stage: true,
		id: r.nextSpanID.Add(1), parent: r.root.Load()}
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
// A StartSpan span folds into its stage name's rollup (see
// StageSummary) and observes its duration in
// fenrir_stage_duration_seconds{stage}. Spans opened with Child — and
// the root itself — land only in the trace ring, no matter where they
// sit.
func (s *Span) End() time.Duration {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	d := time.Since(s.start)
	if s.stage {
		s.r.foldStage(StageRecord{
			Name:    s.name,
			Seconds: d.Seconds(),
			Items:   s.items.Load(),
			Workers: s.workers,
		})
		// The histogram's _count and _sum are the stage's runs and
		// seconds; no other metric repeats them.
		s.r.Histogram(`fenrir_stage_duration_seconds{stage="` + s.name + `"}`).Observe(d.Seconds())
	}
	if s.r.root.Load() != nil {
		rec := s.traceRecord(d)
		s.r.mu.Lock()
		s.r.trace.Push(rec)
		s.r.mu.Unlock()
	}
	return d
}

// foldStage adds one completed stage span to its name's rollup: seconds
// and items sum, and the widest worker pool wins. The rollups are
// bounded by the number of stage names, however long the registry
// lives.
func (r *Registry) foldStage(rec StageRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.stages {
		st := &r.stages[i]
		if st.Name == rec.Name {
			st.Seconds += rec.Seconds
			st.Items += rec.Items
			st.Workers = max(st.Workers, rec.Workers)
			return
		}
	}
	r.stages = append(r.stages, rec)
}

// StageSummary returns the per-stage rollups of completed StartSpan
// spans in first-End order — the rollup the manifest stores. Returns nil
// on a nil registry or before any stage ends.
func (r *Registry) StageSummary() []StageRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StageRecord(nil), r.stages...)
}
