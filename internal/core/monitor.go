package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fenrir/internal/obs"
	"fenrir/internal/timeline"
)

// Monitor is the streaming form of the pipeline: operators do not re-run
// a batch job over five years of vectors every four minutes — they append
// the newest observation and ask "did routing just change, and which mode
// am I in now?". Monitor keeps the all-pairs similarity matrix up to date
// incrementally (O(history × networks) per append instead of a full
// O(history² × networks) recompute) and re-runs the cheap stages (HAC,
// detection) on demand.
//
// Monitor is safe for concurrent use: appends serialize behind an
// internal mutex (epochs must still arrive in increasing order), and
// Snapshot can be polled from any goroutine while ingestion runs.
type Monitor struct {
	space *Space
	sched timeline.Schedule
	w     []float64
	mode  UnknownMode

	// kern and detKern are the packed Gower kernels for the similarity
	// mode and the detection mode, selected once at construction instead
	// of re-derived (with a fresh closure) for every pair of every
	// append. detKern is only consulted when the two modes differ —
	// otherwise the freshly computed Φ row already holds the adjacent
	// similarity the detector needs.
	kern    packedKern
	detKern packedKern

	mu      sync.Mutex
	vectors []*Vector
	// packed mirrors vectors in bit-sliced form (see bitset.go): each
	// vector is packed exactly once, on append or on restore, at its own
	// plane count, and every later Φ against it is XOR/AND+popcount over
	// the packed words — the serve daemon never re-packs a vector and
	// never rebuilds a matrix on the ingest path.
	packed []packedRow
	// sim holds the lower-triangular similarity values: sim[i][j] for
	// j < i. Kept triangular so appends never reallocate earlier rows.
	sim [][]float64

	detect DetectOptions
	// det is the streaming change detector: the same state machine
	// DetectChanges drives in batch, advanced one adjacent pair per
	// append instead of replaying the full history every epoch.
	det *detector

	// window, when positive, bounds the retained history to the newest
	// window observations: Append evicts the oldest epochs *before*
	// accepting a new one, so every detection and mode decision is
	// computed over exactly the suffix a fresh monitor fed only those
	// epochs would hold. 0 means unbounded.
	window int
	// engine caches the live mode clustering (online.go) for the current
	// history: every append or eviction invalidates it, and the next
	// LiveModes call re-clusters the cached Φ triangle once.
	engine *modeEngine
	// evictions counts observations dropped by the window (TrimBefore
	// counts too; both retire Φ rows the same way).
	evictions uint64

	// Ingest statistics, guarded by mu; see Snapshot.
	appends     uint64
	events      uint64
	totalIngest time.Duration
	lastIngest  time.Duration
	lastEvent   timeline.Epoch
	hasEvent    bool

	obs *obs.Registry
}

// NewMonitor starts an empty monitor over a space. w may be nil. Both
// mode and detect.Mode are validated here: a miswired detection mode
// used to surface as a panic on the first append (inside the batch
// detector's Gower call); failing at construction keeps the same
// loudness with a better stack.
func NewMonitor(space *Space, sched timeline.Schedule, w []float64, mode UnknownMode, detect DetectOptions) *Monitor {
	return NewMonitorOpts(space, sched, MonitorOptions{Weights: w, Mode: mode, Detect: detect})
}

// MonitorOptions is the full monitor configuration. The zero value is a
// valid unbounded monitor with uniform weights and default adaptive
// clustering.
type MonitorOptions struct {
	// Weights is the per-network weight vector (nil for uniform).
	Weights []float64
	// Mode selects unknown handling for the similarity matrix.
	Mode UnknownMode
	// Detect tunes adjacent-pair change detection.
	Detect DetectOptions
	// Window bounds the retained history to the newest Window
	// observations. Before an append that would exceed it, the oldest
	// epochs are evicted with exact Φ row retirement — identical to
	// TrimBefore at the cut epoch — keeping memory O(Window²) worst
	// case instead of O(T²) for a stream of length T. 0 (or negative)
	// means unbounded.
	Window int
	// Adaptive configures the live mode engine behind LiveModes; the
	// zero value means DefaultAdaptiveOptions (§2.6.2). Obs and Span
	// are ignored — the registry attached via Instrument is used.
	Adaptive AdaptiveOptions
}

// NewMonitorOpts starts an empty monitor with explicit options; see
// NewMonitor for the validation contract.
func NewMonitorOpts(space *Space, sched timeline.Schedule, opts MonitorOptions) *Monitor {
	w := opts.Weights
	if w != nil && len(w) != space.NumNetworks() {
		panic(fmt.Sprintf("core: monitor weight length %d != networks %d", len(w), space.NumNetworks()))
	}
	validateMode(opts.Mode)
	validateMode(opts.Detect.Mode)
	if opts.Window < 0 {
		opts.Window = 0
	}
	m := &Monitor{
		space: space, sched: sched, w: w, mode: opts.Mode, detect: opts.Detect,
		kern:    packedGowerKernel(w, opts.Mode, space.NumNetworks()),
		detKern: packedGowerKernel(w, opts.Detect.Mode, space.NumNetworks()),
		det:     newDetector(opts.Detect, w),
		window:  opts.Window,
		engine:  newModeEngine(opts.Adaptive),
	}
	m.det.ex.phi = m.centroidPhiLocked
	return m
}

// centroidPhiLocked serves the detector's recurrence check from the
// retained history: Φ between two retained vectors is the cached
// triangle entry when the detection mode is the similarity mode, and
// one packed kernel call otherwise — both bit-identical to the scalar
// Gower loop the batch detector runs. A vector outside the window (the
// one an in-flight Append is adding) takes the scalar loop. Callers hold
// mu.
func (m *Monitor) centroidPhiLocked(cur, c *Vector) float64 {
	i, j := m.rowLocked(cur), m.rowLocked(c)
	switch {
	case i < 0 || j < 0 || i == j:
		return Gower(cur, c, m.w, m.detect.Mode)
	case m.detect.Mode != m.mode:
		return m.detKern(&m.packed[i], &m.packed[j])
	case i > j:
		return m.sim[i][j]
	default:
		return m.sim[j][i]
	}
}

// rowLocked returns v's index in the retained history, or -1. Callers
// hold mu.
func (m *Monitor) rowLocked(v *Vector) int {
	i := sort.Search(len(m.vectors), func(i int) bool { return m.vectors[i].T >= v.T })
	if i < len(m.vectors) && m.vectors[i] == v {
		return i
	}
	return -1
}

// Instrument attaches a metrics registry: each append then feeds the
// fenrir_monitor_appends_total / fenrir_monitor_events_total counters
// and the fenrir_monitor_ingest_seconds latency histogram. A nil
// registry detaches (the no-op default).
func (m *Monitor) Instrument(r *obs.Registry) {
	m.mu.Lock()
	m.obs = r
	m.mu.Unlock()
}

// Len returns the number of observations appended so far.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vectors)
}

// Append adds the next observation and returns whether it constitutes a
// change event relative to the trailing window (the same criterion
// DetectChanges applies in batch). Epochs must be appended in strictly
// increasing order: a repeat of the newest epoch returns
// *DuplicateEpochError, an older epoch returns *OutOfOrderEpochError,
// and in both cases the monitor's state is untouched — an out-of-order
// feed degrades into rejected observations instead of silently
// corrupting the triangular Φ history that checkpoints persist. A
// vector from a foreign space still panics: that is a wiring bug, not a
// data-quality condition.
func (m *Monitor) Append(v *Vector) (ChangeEvent, bool, error) {
	if v.Space != m.space {
		panic("core: monitor vector from foreign space")
	}
	t0 := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.vectors); n > 0 && v.T <= m.vectors[n-1].T {
		newest := m.vectors[n-1].T
		if v.T == newest {
			return ChangeEvent{}, false, &DuplicateEpochError{Epoch: v.T}
		}
		return ChangeEvent{}, false, &OutOfOrderEpochError{Epoch: v.T, Newest: newest}
	}
	// Window eviction happens before the new observation is admitted, so
	// the Φ row, the detection decision, and the mode assignment for this
	// epoch are computed over exactly the retained suffix — the same
	// state a fresh monitor fed only the last Window epochs would hold.
	if m.window > 0 && len(m.vectors) >= m.window {
		m.evictLocked(len(m.vectors) - m.window + 1)
	}
	// Incremental Φ row: the new vector is packed once, and each entry
	// is a packed kernel over the cached history — O(T·log S·N/64) words
	// per append instead of O(T·N) scalar comparisons, bit-identical to
	// the scalar loop (bitset.go).
	pv := packRow(v.assign)
	row := make([]float64, len(m.vectors))
	for j := range m.packed {
		row[j] = m.kern(&pv, &m.packed[j])
	}

	// Change check: advance the streaming detector by the one adjacent
	// pair this append created — the same state machine DetectChanges
	// drives in batch, so batch/stream agreement holds without replaying
	// the full history every epoch.
	var event ChangeEvent
	var changed bool
	if n := len(m.vectors); n > 0 {
		prev := m.vectors[n-1]
		if v.T != prev.T+1 {
			m.det.reset()
		} else {
			phi := row[n-1]
			if m.detect.Mode != m.mode {
				phi = m.detKern(&pv, &m.packed[n-1])
			}
			event, changed = m.det.step(prev, v, phi)
		}
	}
	m.engine.invalidate()
	m.vectors = append(m.vectors, v)
	m.packed = append(m.packed, pv)
	m.sim = append(m.sim, row)

	ingest := time.Since(t0)
	m.appends++
	m.totalIngest += ingest
	m.lastIngest = ingest
	if changed {
		m.events++
		m.lastEvent = event.At
		m.hasEvent = true
	}
	if m.obs != nil {
		m.obs.Counter("fenrir_monitor_appends_total").Inc()
		m.obs.Histogram("fenrir_monitor_ingest_seconds").Observe(ingest.Seconds())
		if changed {
			m.obs.Counter("fenrir_monitor_events_total").Inc()
			ObserveDetection(m.obs, event)
		}
	}
	return event, changed, nil
}

// MonitorSnapshot is a point-in-time view of a monitor's ingest and
// detection statistics, safe to collect while appends continue.
type MonitorSnapshot struct {
	// Appends and Events count observations ingested and change events
	// fired since the monitor started (TrimBefore does not reset them).
	Appends uint64
	Events  uint64
	// History is the current observation count (after trims).
	History int
	// LastIngest and TotalIngest measure Append latency — the time to
	// extend the similarity matrix and re-run detection.
	LastIngest  time.Duration
	TotalIngest time.Duration
	// LastEvent is the epoch of the most recent change event; HasEvent
	// reports whether any event has fired.
	LastEvent timeline.Epoch
	HasEvent  bool
	// Window is the sliding-window bound (0 = unbounded); Evictions
	// counts observations retired by the window or by TrimBefore.
	Window    int
	Evictions uint64
}

// MeanIngest returns the average per-observation ingest latency.
func (s MonitorSnapshot) MeanIngest() time.Duration {
	if s.Appends == 0 {
		return 0
	}
	return s.TotalIngest / time.Duration(s.Appends)
}

// Snapshot returns the monitor's live ingest/detection statistics.
func (m *Monitor) Snapshot() MonitorSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MonitorSnapshot{
		Appends:     m.appends,
		Events:      m.events,
		History:     len(m.vectors),
		LastIngest:  m.lastIngest,
		TotalIngest: m.totalIngest,
		LastEvent:   m.lastEvent,
		HasEvent:    m.hasEvent,
		Window:      m.window,
		Evictions:   m.evictions,
	}
}

// seriesLocked materializes the history as a Series; callers hold mu.
func (m *Monitor) seriesLocked() *Series {
	return NewSeries(m.space, m.sched, m.vectors, nil)
}

// Series materializes the monitor's history as a Series.
func (m *Monitor) Series() *Series {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seriesLocked()
}

// Matrix materializes the full symmetric similarity matrix. The epochs
// array mirrors SimilarityMatrix's.
func (m *Monitor) Matrix() *SimMatrix {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.vectors)
	out := &SimMatrix{N: n, Epochs: make([]int, n), vals: make([]float64, n*n)}
	for i, v := range m.vectors {
		out.Epochs[i] = int(v.T)
		out.vals[i*n+i] = 1
		for j := 0; j < i; j++ {
			phi := m.sim[i][j]
			out.vals[i*n+j] = phi
			out.vals[j*n+i] = phi
		}
	}
	return out
}

// Modes runs mode discovery over the history so far.
func (m *Monitor) Modes(opts AdaptiveOptions) *ModesResult {
	return DiscoverModes(m.Matrix(), opts)
}

// CurrentMode returns the mode containing the latest observation, or nil
// before any observation arrives.
func (m *Monitor) CurrentMode(opts AdaptiveOptions) *Mode {
	n := m.Len()
	if n == 0 {
		return nil
	}
	return m.Modes(opts).ModeOf(n - 1)
}

// Space returns the space the monitor's vectors live in.
func (m *Monitor) Space() *Space { return m.space }

// Schedule returns the monitor's observation schedule.
func (m *Monitor) Schedule() timeline.Schedule { return m.sched }

// Detect returns the monitor's change-detection options.
func (m *Monitor) Detect() DetectOptions { return m.detect }

// Mode returns the monitor's unknown-handling mode.
func (m *Monitor) Mode() UnknownMode { return m.mode }

// Weights returns a copy of the monitor's network weights (nil for
// uniform weighting).
func (m *Monitor) Weights() []float64 { return append([]float64(nil), m.w...) }

// MonitorState is a complete, self-contained export of a monitor:
// configuration (space, schedule, weights, modes), history (vectors and
// the lower-triangular Φ values, preserved bit for bit), and ingest
// statistics. internal/snapshot serializes it; RestoreMonitor rebuilds a
// monitor that continues exactly where the exported one stopped —
// subsequent appends produce the identical matrix, detection, and
// Snapshot counts an uninterrupted run would have.
type MonitorState struct {
	Space    *Space
	Schedule timeline.Schedule
	Weights  []float64
	Mode     UnknownMode
	Detect   DetectOptions

	Vectors []*Vector
	// Sim holds the lower-triangular similarity rows: Sim[i] has i
	// entries, Φ against each earlier vector.
	Sim [][]float64

	Appends     uint64
	Events      uint64
	TotalIngest time.Duration
	LastIngest  time.Duration
	LastEvent   timeline.Epoch
	HasEvent    bool

	// Window is the sliding-window bound (0 = unbounded) and Evictions
	// the number of observations it has retired so far.
	Window    int
	Evictions uint64
	// Adaptive is the live mode engine's sweep configuration
	// (normalized; Obs/Span always nil).
	Adaptive AdaptiveOptions
	// EngineMerges, when EngineValid, is the engine's live dendrogram
	// over len(Vectors) leaves — persisting it lets a restored monitor
	// answer LiveModes by re-sweeping instead of re-clustering.
	EngineValid  bool
	EngineMerges []Merge
}

// State exports the monitor's full state. The similarity rows are
// copied; vectors are shared (they are immutable once appended).
func (m *Monitor) State() MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	sim := make([][]float64, len(m.sim))
	for i, row := range m.sim {
		sim[i] = append([]float64(nil), row...)
	}
	st := MonitorState{
		Space:    m.space,
		Schedule: m.sched,
		Weights:  append([]float64(nil), m.w...),
		Mode:     m.mode,
		Detect:   m.detect,
		Vectors:  append([]*Vector(nil), m.vectors...),
		Sim:      sim,
		Appends:  m.appends, Events: m.events,
		TotalIngest: m.totalIngest, LastIngest: m.lastIngest,
		LastEvent: m.lastEvent, HasEvent: m.hasEvent,
		Window: m.window, Evictions: m.evictions,
		Adaptive: m.engine.opts,
	}
	if dg := m.engine.dg; dg != nil {
		st.EngineValid = true
		st.EngineMerges = append([]Merge(nil), dg.Merges...)
	}
	return st
}

// ApplyDefaultWindow bounds an unbounded exported state the way a fresh
// monitor created under the same server default would have been bounded:
// if the state carries no window of its own (Window == 0) and w > 0, the
// window becomes w and any history beyond the newest w observations is
// retired — the same suffix, Φ triangle, and eviction accounting a
// windowed monitor fed the identical stream would hold, because Gower
// similarity is pairwise and the retained triangle is history-free. A
// state that already has a window, or w <= 0, is left untouched. The
// live-engine dendrogram is dropped when history is trimmed (its leaves
// no longer line up); the next mode query re-clusters the bounded
// suffix, exactly as after any eviction.
func (st *MonitorState) ApplyDefaultWindow(w int) {
	if w <= 0 || st.Window != 0 {
		return
	}
	st.Window = w
	cut := len(st.Vectors) - w
	if cut <= 0 {
		return
	}
	st.Vectors = append([]*Vector(nil), st.Vectors[cut:]...)
	sim := make([][]float64, len(st.Sim)-cut)
	for i := range sim {
		sim[i] = append([]float64(nil), st.Sim[cut+i][cut:]...)
	}
	st.Sim = sim
	st.Evictions += uint64(cut)
	st.EngineValid = false
	st.EngineMerges = nil
}

// RestoreMonitor rebuilds a monitor from an exported state, validating
// the invariants the codec cannot express: the triangular Φ shape,
// strictly increasing epochs, and every vector belonging to the state's
// space. The restored monitor is not instrumented; call Instrument to
// re-attach a registry.
func RestoreMonitor(st MonitorState) (*Monitor, error) {
	if st.Space == nil {
		return nil, fmt.Errorf("core: restore monitor: nil space")
	}
	if !st.Mode.Valid() {
		return nil, fmt.Errorf("core: restore monitor: invalid UnknownMode %d", int(st.Mode))
	}
	if !st.Detect.Mode.Valid() {
		// NewMonitor panics on a miswired detection mode; a snapshot is
		// untrusted input, so the decoder's contract (error, not crash)
		// holds here too.
		return nil, fmt.Errorf("core: restore monitor: invalid detection UnknownMode %d", int(st.Detect.Mode))
	}
	if st.Weights != nil && len(st.Weights) != st.Space.NumNetworks() {
		return nil, fmt.Errorf("core: restore monitor: weight length %d != networks %d",
			len(st.Weights), st.Space.NumNetworks())
	}
	if len(st.Sim) != len(st.Vectors) {
		return nil, fmt.Errorf("core: restore monitor: %d sim rows for %d vectors",
			len(st.Sim), len(st.Vectors))
	}
	if st.Window < 0 {
		return nil, fmt.Errorf("core: restore monitor: negative window %d", st.Window)
	}
	if st.Window > 0 && len(st.Vectors) > st.Window {
		return nil, fmt.Errorf("core: restore monitor: %d vectors exceed window %d",
			len(st.Vectors), st.Window)
	}
	if st.EngineValid {
		n := len(st.Vectors)
		want := n - 1
		if want < 0 {
			want = 0
		}
		if len(st.EngineMerges) != want {
			return nil, fmt.Errorf("core: restore monitor: %d engine merges for %d vectors",
				len(st.EngineMerges), n)
		}
		for k, mg := range st.EngineMerges {
			// Node ids reference leaves (< n) or earlier merges (n+j, j<k).
			if mg.A < 0 || mg.A >= n+k || mg.B < 0 || mg.B >= n+k {
				return nil, fmt.Errorf("core: restore monitor: engine merge %d references node out of range", k)
			}
			if !(mg.Height >= 0) {
				return nil, fmt.Errorf("core: restore monitor: engine merge %d has invalid height", k)
			}
		}
	}
	for i, v := range st.Vectors {
		if v.Space != st.Space {
			return nil, fmt.Errorf("core: restore monitor: vector %d from foreign space", i)
		}
		if i > 0 && v.T <= st.Vectors[i-1].T {
			return nil, &OutOfOrderEpochError{Epoch: v.T, Newest: st.Vectors[i-1].T}
		}
		if len(st.Sim[i]) != i {
			return nil, fmt.Errorf("core: restore monitor: sim row %d has %d entries, want %d",
				i, len(st.Sim[i]), i)
		}
	}
	m := NewMonitorOpts(st.Space, st.Schedule, MonitorOptions{
		Weights: st.Weights, Mode: st.Mode, Detect: st.Detect,
		Window: st.Window, Adaptive: st.Adaptive,
	})
	m.evictions = st.Evictions
	if st.EngineValid {
		m.engine.restore(&Dendrogram{N: len(st.Vectors), Merges: append([]Merge(nil), st.EngineMerges...)})
	}
	m.vectors = append([]*Vector(nil), st.Vectors...)
	// Rebuild the packed rows from the restored vectors — the snapshot
	// codec persists only the raw assignment rows, so packing happens
	// once per vector here and never again.
	m.packed = make([]packedRow, len(m.vectors))
	for i, v := range m.vectors {
		m.packed[i] = packRow(v.assign)
	}
	m.sim = make([][]float64, len(st.Sim))
	for i, row := range st.Sim {
		m.sim[i] = append([]float64(nil), row...)
	}
	m.appends, m.events = st.Appends, st.Events
	m.totalIngest, m.lastIngest = st.TotalIngest, st.LastIngest
	m.lastEvent, m.hasEvent = st.LastEvent, st.HasEvent
	m.rebuildDetectorLocked()
	return m, nil
}

// rebuildDetectorLocked replays the streaming detector over the retained
// history — what a batch DetectChanges over the current series would
// leave behind. The detector is rebuilt from scratch (not reset): a gap
// reset deliberately keeps the explainer's mode centroids, but after a
// trim or restore the centroid memory must equal what a batch run over
// the retained series alone would hold. The replay runs only the
// detector's decisions — baseline, cooldown, recurrence registration —
// and builds none of the Explanations those past events carried, in the
// detector's own reused buffers. Adjacent-pair similarities come from
// the cached Φ rows when the detection mode matches the similarity mode
// (the common case: zero Gower calls), and from the packed detection
// kernel otherwise. Callers hold mu or own m exclusively.
func (m *Monitor) rebuildDetectorLocked() {
	m.det.clearAll()
	for i := 1; i < len(m.vectors); i++ {
		if m.vectors[i].T != m.vectors[i-1].T+1 {
			m.det.reset()
			continue
		}
		var phi float64
		if m.detect.Mode == m.mode {
			phi = m.sim[i][i-1]
		} else {
			phi = m.detKern(&m.packed[i], &m.packed[i-1])
		}
		m.det.decide(m.vectors[i-1], m.vectors[i], phi)
	}
}

// TrimBefore drops observations older than epoch, bounding memory for
// long-running monitors. Mode history before the cut is forgotten.
// Repeated small trims are amortized-cheap: the retained triangle is
// never copied (see evictLocked), where the old implementation
// reallocated and copied all O(T²) retained Φ values even for a
// one-epoch trim.
func (m *Monitor) TrimBefore(epoch timeline.Epoch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cut := 0
	for cut < len(m.vectors) && m.vectors[cut].T < epoch {
		cut++
	}
	m.evictLocked(cut)
}

// evictLocked retires the cut oldest observations without copying the
// retained state: dead prefix entries are nil'd for the collector and
// every slice advances in place over its backing array. Go's append
// then grows an advanced slice only when it exhausts the remaining
// backing capacity, at which point the copy it performs is O(retained)
// — so the backing arrays behave as a ring with amortized O(1) slots
// per append, and a windowed monitor's heap stays bounded by the window
// instead of growing O(T²) with the stream. The similarity triangle
// keeps its row-length invariant (len(sim[i]) == i) because dropping
// the cut oldest rows removes exactly the first cut columns of every
// retained row. Callers hold mu.
func (m *Monitor) evictLocked(cut int) {
	if cut <= 0 {
		return
	}
	if cut > len(m.vectors) {
		cut = len(m.vectors)
	}
	for i := 0; i < cut; i++ {
		m.vectors[i] = nil
		m.packed[i] = packedRow{}
		m.sim[i] = nil
	}
	m.vectors = m.vectors[cut:]
	m.packed = m.packed[cut:]
	m.sim = m.sim[cut:]
	for i, row := range m.sim {
		m.sim[i] = row[cut:]
	}
	m.evictions += uint64(cut)
	// Forget detector state derived from the evicted epochs, exactly as
	// a batch DetectChanges over the retained series would: baseline,
	// cooldown, and the explainer's mode centroids are all rebuilt from
	// the retained suffix (O(window) with cached similarities).
	m.rebuildDetectorLocked()
	// The next mode query re-clusters the (window-bounded) suffix.
	m.engine.invalidate()
	if m.obs != nil {
		m.obs.Counter("fenrir_monitor_evictions_total").Add(int64(cut))
	}
}

// LiveModes is mode discovery served from the live engine: the first
// query after an append or eviction re-clusters the cached Φ triangle,
// and later queries against the same history reuse that dendrogram and
// its threshold sweep. The result is
// byte-identical to Modes(opts) for the engine's configured
// AdaptiveOptions — pinned by the equivalence tests — except that the
// returned ModesResult carries a nil Matrix (the O(T²) dense matrix is
// exactly what this path avoids materializing), so CrossPhi is not
// available on it.
func (m *Monitor) LiveModes() *ModesResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	threshold, clusters := m.liveClustersLocked()
	return m.modesResultLocked(threshold, clusters)
}

// LiveThreshold returns the engine's current (threshold, clusters)
// without assembling Mode structures — the cheapest live view, used by
// tests and by callers that only need the partition.
func (m *Monitor) LiveThreshold() (float64, [][]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveClustersLocked()
}

// liveClustersLocked brings the engine up to date with the retained
// history and returns the swept partition. Callers hold mu.
func (m *Monitor) liveClustersLocked() (float64, [][]int) {
	e := m.engine
	rebuilt := e.dg == nil
	if rebuilt {
		e.rebuildFromTriangle(m.sim, len(m.vectors))
	}
	var sp *obs.Span
	if m.obs != nil {
		sp = m.obs.TraceRoot().Child("recluster")
		if rebuilt {
			sp.SetAttr("path", "rebuild")
			m.obs.Counter("fenrir_monitor_mode_rebuilds_total").Inc()
		} else {
			sp.SetAttr("path", "cached")
		}
	}
	threshold, clusters, churn := e.sweep(m.obs, sp)
	if sp != nil {
		sp.SetAttr("threshold", threshold)
		sp.SetAttr("clusters", len(clusters))
		sp.End()
	}
	if churn && m.obs != nil {
		m.obs.Counter("fenrir_monitor_mode_churn_total").Inc()
	}
	return threshold, clusters
}

// modesResultLocked assembles a ModesResult from a partition over the
// retained rows, mirroring DiscoverModes exactly but reading Φ ranges
// from the triangular rows instead of a dense matrix. Callers hold mu.
func (m *Monitor) modesResultLocked(threshold float64, clusters [][]int) *ModesResult {
	res := &ModesResult{Threshold: threshold}
	for _, rows := range clusters {
		mode := Mode{Rows: rows}
		for _, r := range rows {
			mode.Epochs = append(mode.Epochs, m.vectors[r].T)
		}
		sort.Slice(mode.Epochs, func(i, j int) bool { return mode.Epochs[i] < mode.Epochs[j] })
		mode.Ranges = consecutiveRanges(mode.Epochs)
		if len(rows) >= 2 {
			mode.InternalLo, mode.InternalHi = m.triPhiRangeLocked(rows, rows)
		} else {
			mode.InternalLo, mode.InternalHi = 1, 1
		}
		res.Modes = append(res.Modes, mode)
	}
	sort.Slice(res.Modes, func(i, j int) bool { return res.Modes[i].Epochs[0] < res.Modes[j].Epochs[0] })
	for i := range res.Modes {
		res.Modes[i].ID = i + 1
	}
	return res
}

// triPhiRangeLocked is SimMatrix.PhiRange over the monitor's triangular
// rows: the [min,max] Φ across a×b, diagonal excluded. Callers hold mu.
func (m *Monitor) triPhiRangeLocked(a, b []int) (lo, hi float64) {
	ok := false
	for _, i := range a {
		for _, j := range b {
			if i == j {
				continue
			}
			v := 0.0
			if i > j {
				v = m.sim[i][j]
			} else {
				v = m.sim[j][i]
			}
			if !ok {
				lo, hi, ok = v, v, true
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// Window returns the sliding-window bound (0 = unbounded).
func (m *Monitor) Window() int { return m.window }
