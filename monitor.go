package fenrir

import (
	"fenrir/internal/core"
	"fenrir/internal/snapshot"
)

// Monitor re-exports the streaming pipeline: append observations as they
// arrive, get change events immediately, and query the current routing
// mode (LiveModes) without batch recomputation. Each append packs the new
// vector into bit-planes once and extends the Φ history with popcount
// kernels — O(history·networks/64) words per observation, with change
// detection advanced incrementally rather than replayed over the full
// history. Monitor is safe for concurrent use; poll Snapshot for live
// ingest statistics, or attach a Registry with Instrument. See
// examples/monitoring.
type Monitor = core.Monitor

// MonitorOptions is the full monitor configuration, including the
// sliding-window bound (Window).
type MonitorOptions = core.MonitorOptions

// MonitorState is a complete export of a Monitor — configuration,
// history, the triangular Φ values bit for bit, and ingest statistics.
// Monitor.State produces one for SaveMonitor.
type MonitorState = core.MonitorState

// NewMonitor starts a streaming monitor over a space. w may be nil for
// uniform weights; detect tunes the change criterion.
func NewMonitor(space *Space, sched Schedule, w []float64, mode UnknownMode, detect core.DetectOptions) *Monitor {
	return core.NewMonitor(space, sched, w, mode, detect)
}

// NewBoundedMonitor starts a monitor with explicit options. With
// opts.Window = W the monitor retains only the newest W observations —
// older epochs are evicted with exact Φ row retirement, so memory stays
// bounded by the window while events and LiveModes answers remain
// byte-identical to a monitor that only ever saw the retained suffix.
func NewBoundedMonitor(space *Space, sched Schedule, opts MonitorOptions) *Monitor {
	return core.NewMonitorOpts(space, sched, opts)
}

// DefaultDetectOptions re-exports the detector defaults used in the §3
// validation.
var DefaultDetectOptions = core.DefaultDetectOptions

// SaveMonitor / LoadMonitor checkpoint a monitor to the versioned,
// CRC-framed snapshot file format (atomic same-directory rename on
// write). Encoding is deterministic: the same state always produces
// identical bytes. See DESIGN.md §8.
var (
	SaveMonitor = snapshot.SaveMonitor
	LoadMonitor = snapshot.LoadMonitor
)
