package core

import (
	"fmt"
	"math"
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
	// otherwise the cached Φ triangle already holds every similarity the
	// detector needs (see detPhiLocked and adj).
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
	// j < i, SimMatrix's layout. Kept triangular so appends never
	// reallocate earlier rows; a row is never written after its append,
	// so Matrix views share the rows.
	sim [][]float64
	// epochs and adj are the two per-row arrays the detector's scan
	// reads, kept beside vectors and cut with them: row i's epoch, and
	// its detection Φ against row i−1 (row 0's entry may be against an
	// evicted row, and is never read). They are flat so that the rebuild
	// after every eviction reads them in order, with no scattered load
	// per row. Neither is persisted; RestoreMonitor builds them.
	epochs []timeline.Epoch
	adj    []float64

	detect DetectOptions
	// det is the streaming change detector: the same scan DetectChanges
	// runs in batch, advanced over the one row each append adds instead
	// of replaying the full history every epoch.
	det *detector

	// window, when positive, bounds the retained history to the newest
	// window observations: Append evicts the oldest epochs *before*
	// accepting a new one, so every detection and mode decision is
	// computed over exactly the suffix a fresh monitor fed only those
	// epochs would hold. 0 means unbounded.
	window int
	// engine caches the live mode partition (online.go) for the current
	// history: every append or eviction invalidates it, and the next
	// LiveModes call re-clusters the cached Φ triangle once.
	engine modeEngine
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
	met monitorMetrics
}

// monitorMetrics are a monitor's metric handles, resolved once by
// Instrument; while detached every handle is nil, a no-op.
type monitorMetrics struct {
	appends, events, evictions, rebuilds, churn *obs.Counter
	recurrences, novel                          *obs.Counter
	ingest                                      *obs.Histogram
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
// valid unbounded monitor with uniform weights. Live modes always use
// DefaultAdaptiveOptions (§2.6.2).
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
	return &Monitor{
		space: space, sched: sched, w: w, mode: opts.Mode, detect: opts.Detect,
		kern:    packedGowerKernel(w, opts.Mode, space.NumNetworks()),
		detKern: packedGowerKernel(w, opts.Detect.Mode, space.NumNetworks()),
		det:     newDetector(opts.Detect),
		window:  opts.Window,
	}
}

// detPhiLocked is the detection Φ between retained rows i and j, the one
// place the monitor resolves it: the cached triangle entry, or one packed
// detection-kernel call when the detection mode differs from the
// similarity mode — both bit-identical to the scalar Gower loop
// DetectChanges runs. Callers hold mu.
func (m *Monitor) detPhiLocked(i, j int) float64 {
	if m.detect.Mode != m.mode {
		var phi [1]float64
		m.detKern.row(&m.packed[i], m.packed[j:j+1], phi[:])
		return phi[0]
	}
	if i < j {
		i, j = j, i
	}
	return m.sim[i][j]
}

// adjPhiLocked is the adj entry of retained row i: its detection Φ
// against row i−1, read off row i's Φ row when the two modes agree, one
// detection-kernel call otherwise; 0 for row 0. Callers hold mu.
func (m *Monitor) adjPhiLocked(i int) float64 {
	if i == 0 {
		return 0
	}
	return m.detPhiLocked(i, i-1)
}

// Instrument attaches a metrics registry: each append then feeds the
// fenrir_monitor_appends_total / fenrir_monitor_events_total counters
// and the fenrir_monitor_ingest_seconds latency histogram, each change
// event its verdict counter (fenrir_detect_recurrence_total or
// fenrir_detect_novel_total) and a flight-recorder line, evictions and
// mode reads their own counters. The handles are resolved here, once. A
// nil registry detaches (the no-op default).
func (m *Monitor) Instrument(r *obs.Registry) {
	met := monitorMetrics{
		appends:     r.Counter("fenrir_monitor_appends_total"),
		events:      r.Counter("fenrir_monitor_events_total"),
		evictions:   r.Counter("fenrir_monitor_evictions_total"),
		rebuilds:    r.Counter("fenrir_monitor_mode_rebuilds_total"),
		churn:       r.Counter("fenrir_monitor_mode_churn_total"),
		recurrences: r.Counter("fenrir_detect_recurrence_total"),
		novel:       r.Counter("fenrir_detect_novel_total"),
		ingest:      r.Histogram("fenrir_monitor_ingest_seconds"),
	}
	m.mu.Lock()
	m.obs, m.met = r, met
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
	if n := len(m.epochs); n > 0 && v.T <= m.epochs[n-1] {
		newest := m.epochs[n-1]
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
	// Incremental Φ row: the new vector is packed once, and one row call
	// of the packed kernel fills the row against the cached history —
	// O(T·log S·N/64) words per append instead of O(T·N) scalar
	// comparisons, bit-identical to the scalar loop (bitset.go).
	pv := packRow(v.assign)
	row := make([]float64, len(m.vectors))
	m.kern.row(&pv, m.packed, row)
	m.engine.invalidate()
	m.vectors = append(m.vectors, v)
	m.packed = append(m.packed, pv)
	m.sim = append(m.sim, row)
	m.epochs = append(m.epochs, v.T)
	m.adj = append(m.adj, m.adjPhiLocked(len(m.vectors)-1))

	// Change check: advance the streaming detector over the one row this
	// append added — the scan DetectChanges runs in batch, so batch/stream
	// agreement holds without replaying the full history every epoch.
	var event ChangeEvent
	var changed bool
	m.det.scan(m.vectors, m.epochs, m.adj, len(m.vectors)-1, m.detPhiLocked, func(h hit) {
		event, changed = h.event(m.w, true), true
	})

	ingest := time.Since(t0)
	m.appends++
	m.totalIngest += ingest
	m.lastIngest = ingest
	if changed {
		m.events++
		m.lastEvent = event.At
		m.hasEvent = true
	}
	m.met.appends.Inc()
	m.met.ingest.Observe(ingest.Seconds())
	if changed {
		m.met.events.Inc()
		if event.Explanation.Recurrence {
			m.met.recurrences.Inc()
		} else {
			m.met.novel.Inc()
		}
		logDetection(m.obs, event)
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

// Series materializes the monitor's history as a Series.
func (m *Monitor) Series() *Series {
	m.mu.Lock()
	defer m.mu.Unlock()
	return NewSeries(m.space, m.sched, m.vectors, nil)
}

// Matrix returns the similarity matrix of the retained history. It
// shares the monitor's Φ rows, which are never written after their
// append, so it costs O(history), not O(history²), and later appends and
// evictions leave it unchanged. Callers must not Set on it. The epochs
// array mirrors SimilarityMatrix's.
func (m *Monitor) Matrix() *SimMatrix {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.matrixLocked()
}

// matrixLocked is Matrix; callers hold mu.
func (m *Monitor) matrixLocked() *SimMatrix {
	n := len(m.vectors)
	out := &SimMatrix{N: n, Epochs: make([]int, n), rows: append([][]float64(nil), m.sim...)}
	for i, t := range m.epochs {
		out.Epochs[i] = int(t)
	}
	return out
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
}

// State exports the monitor's full state. Vectors and Φ rows are
// shared with the monitor, as Matrix shares them: neither is written
// after its append, so the state costs O(history) and later appends and
// evictions leave it unchanged. Callers must not write Sim's rows.
func (m *Monitor) State() MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MonitorState{
		Space:    m.space,
		Schedule: m.sched,
		Weights:  append([]float64(nil), m.w...),
		Mode:     m.mode,
		Detect:   m.detect,
		Vectors:  append([]*Vector(nil), m.vectors...),
		Sim:      append([][]float64(nil), m.sim...),
		Appends:  m.appends, Events: m.events,
		TotalIngest: m.totalIngest, LastIngest: m.lastIngest,
		LastEvent: m.lastEvent, HasEvent: m.hasEvent,
		Window: m.window, Evictions: m.evictions,
	}
}

// ApplyDefaultWindow bounds an unbounded exported state the way a fresh
// monitor created under the same server default would have been bounded:
// if the state carries no window of its own (Window == 0) and w > 0, the
// window becomes w and any history beyond the newest w observations is
// retired — the same suffix, Φ triangle, and eviction accounting a
// windowed monitor fed the identical stream would hold, because Gower
// similarity is pairwise and the retained triangle is history-free. A
// state that already has a window, or w <= 0, is left untouched.
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
}

// CheckWeights reports an error unless w can weight Φ: every weight
// finite and non-negative, and their sum finite. Any other vector can
// take Φ out of [0, 1] or make it NaN (an overflowed sum gives Inf/Inf).
func CheckWeights(w []float64) error {
	sum := 0.0
	for i, x := range w {
		if !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("weight %d is %v, want finite and non-negative", i, x)
		}
		sum += x
	}
	if math.IsInf(sum, 1) {
		return fmt.Errorf("weights sum to %v", sum)
	}
	return nil
}

// RestoreMonitor rebuilds a monitor from an exported state, validating
// the invariants the codec cannot express: weights CheckWeights accepts,
// the triangular Φ shape with every Φ finite, strictly increasing
// epochs, and every vector belonging to the state's space. The restored
// monitor adopts st.Sim's rows rather than copying them; they must not
// be written afterwards. It is not instrumented; call Instrument to
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
	if err := CheckWeights(st.Weights); err != nil {
		return nil, fmt.Errorf("core: restore monitor: %v", err)
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
		for j, phi := range st.Sim[i] {
			// phi−phi is NaN exactly when phi is NaN or ±Inf; this costs
			// half what math.IsNaN plus math.IsInf do over a W=1024
			// triangle.
			if phi-phi != 0 {
				return nil, fmt.Errorf("core: restore monitor: sim row %d entry %d is %v", i, j, phi)
			}
		}
	}
	m := NewMonitorOpts(st.Space, st.Schedule, MonitorOptions{
		Weights: st.Weights, Mode: st.Mode, Detect: st.Detect,
		Window: st.Window,
	})
	m.evictions = st.Evictions
	m.vectors = append([]*Vector(nil), st.Vectors...)
	// Rebuild the packed rows from the restored vectors — the snapshot
	// codec persists only the raw assignment rows, so packing happens
	// once per vector here and never again.
	m.packed = make([]packedRow, len(m.vectors))
	for i, v := range m.vectors {
		m.packed[i] = packRow(v.assign)
	}
	m.sim = append([][]float64(nil), st.Sim...)
	m.epochs = make([]timeline.Epoch, len(m.vectors))
	m.adj = make([]float64, len(m.vectors))
	for i, v := range m.vectors {
		m.epochs[i] = v.T
		m.adj[i] = m.adjPhiLocked(i)
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
// reset deliberately keeps the mode centroids, but after a trim or
// restore the centroid memory must equal what a batch run over the
// retained series alone would hold. The replay runs only the scan's
// decisions — baseline, cooldown, recurrence registration — over the
// cached Φ, builds none of the Explanations those past events carried,
// and reuses the detector's buffers. Callers hold mu or own m
// exclusively.
func (m *Monitor) rebuildDetectorLocked() {
	m.det.clearAll()
	m.det.scan(m.vectors, m.epochs, m.adj, 1, m.detPhiLocked, nil)
}

// Events replays change detection over the retained history and returns
// the last n events it finds (all of them when n <= 0), oldest first,
// with their Explanations when explain is set. The replay runs a fresh
// detector through the monitor's scan over the cached Φ, so the list is
// the tail of DetectChanges(m.Series(), m.Weights(), m.Detect()), and
// only the returned events are explained. It depends only on the
// retained observations, so a restored monitor answers exactly as the
// one it was checkpointed from.
func (m *Monitor) Events(n int, explain bool) []ChangeEvent {
	hits := m.replay()
	if n > 0 && len(hits) > n {
		hits = hits[len(hits)-n:]
	}
	events := make([]ChangeEvent, len(hits))
	for i, h := range hits {
		events[i] = h.event(m.w, explain)
	}
	return events
}

// EventAt returns the change event at epoch at, explained, as Events
// would list it; ok is false when detection over the retained history
// fires no event there.
func (m *Monitor) EventAt(at timeline.Epoch) (ev ChangeEvent, ok bool) {
	for _, h := range m.replay() {
		if h.cur.T == at {
			return h.event(m.w, true), true
		}
	}
	return ChangeEvent{}, false
}

// replay runs a fresh detector over the retained history and returns its
// events, unexplained. Only the scan holds mu: the hits carry their
// vectors, which are never written after Append, and the weights never
// change, so callers build Explanations without blocking appends.
func (m *Monitor) replay() []hit {
	m.mu.Lock()
	defer m.mu.Unlock()
	var hits []hit
	newDetector(m.detect).scan(m.vectors, m.epochs, m.adj, 1, m.detPhiLocked, func(h hit) { hits = append(hits, h) })
	return hits
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
	for cut < len(m.epochs) && m.epochs[cut] < epoch {
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
	m.epochs = m.epochs[cut:]
	m.adj = m.adj[cut:]
	for i, row := range m.sim {
		m.sim[i] = row[cut:]
	}
	m.evictions += uint64(cut)
	// Forget detector state derived from the evicted epochs, exactly as
	// a batch DetectChanges over the retained series would: baseline,
	// cooldown, and the mode centroids are all rebuilt from the retained
	// suffix (O(window) with cached similarities).
	m.rebuildDetectorLocked()
	// The next mode query re-clusters the (window-bounded) suffix.
	m.engine.invalidate()
	m.met.evictions.Add(int64(cut))
}

// LiveModes is mode discovery served from the live engine: the first
// query after an append, an eviction or a restore re-clusters the cached
// Φ triangle, and later queries against the same history reuse that
// partition. The result, its Matrix included, is byte-identical to
// DiscoverModes(m.Matrix(), DefaultAdaptiveOptions()) — pinned by the
// equivalence tests.
func (m *Monitor) LiveModes() *ModesResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sp *obs.Span
	if m.obs != nil {
		sp = m.obs.TraceRoot().Child("recluster")
		if !m.engine.valid {
			sp.SetAttr("path", "rebuild")
			m.met.rebuilds.Inc()
		} else {
			sp.SetAttr("path", "cached")
		}
	}
	mat := m.matrixLocked()
	threshold, clusters, churn := m.engine.partition(mat)
	if m.obs != nil {
		sp.SetAttr("threshold", threshold)
		sp.SetAttr("clusters", len(clusters))
		sp.End()
		if churn {
			m.met.churn.Inc()
		}
	}
	return assembleModes(mat, threshold, clusters)
}

// Window returns the sliding-window bound (0 = unbounded).
func (m *Monitor) Window() int { return m.window }
