package fenrir

import (
	"net/http"
	"time"

	"fenrir/internal/obs"
	"fenrir/internal/obs/history"
)

// Observability re-exports: the zero-dependency instrumentation layer
// from internal/obs, for users who want the same metrics, spans, and
// manifests the fenrir CLI produces (see DESIGN.md §6).
//
// Everything tolerates a nil *Registry: instrumented code paths then
// run exactly as if no instrumentation existed, so libraries can
// instrument unconditionally and let callers opt in.
type (
	// Registry holds named counters, gauges, and histograms plus the
	// stage-span log.
	Registry = obs.Registry
	// Span measures one pipeline stage (duration, items, workers).
	Span = obs.Span
	// StageRecord is one completed span as reported by StageSummary.
	StageRecord = obs.StageRecord
	// Manifest is the structured record of one pipeline run.
	Manifest = obs.Manifest
	// RuntimeSampler tracks peak goroutine and heap usage.
	RuntimeSampler = obs.RuntimeSampler
	// ObsServer serves /metrics, /debug/pprof, /debug/trace, and
	// /debug/events.
	ObsServer = obs.Server
	// Attr is one key/value attribute on a span or flight event.
	Attr = obs.Attr
	// TraceRecord is one completed span in the trace ring.
	TraceRecord = obs.TraceRecord
	// Event is one structured entry in the flight recorder.
	Event = obs.Event
	// FlightRecorder is the bounded in-memory ring behind Registry.Logger.
	FlightRecorder = obs.FlightRecorder
	// FloatCounter is a monotonically increasing float64 counter.
	FloatCounter = obs.FloatCounter
	// HistogramSummary is a histogram snapshot with p50/p90/p99 quantiles.
	HistogramSummary = obs.HistogramSummary
)

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// MetricsHandler returns an http.Handler rendering the registry in
// Prometheus text exposition format, for mounting on an existing mux.
func MetricsHandler(r *Registry) http.Handler { return obs.Handler(r) }

// NewObsServer binds addr (":0" picks a free port) and serves /metrics
// and /debug/pprof/ in the background.
func NewObsServer(addr string, r *Registry) (*ObsServer, error) { return obs.NewServer(addr, r) }

// StartRuntimeSampler begins peak goroutine/heap sampling; interval
// <= 0 defaults to 25ms. Stop returns the peaks.
var StartRuntimeSampler = obs.StartRuntimeSampler

// WriteManifest / LoadManifest round-trip run manifests as indented
// JSON.
var (
	WriteManifest = obs.WriteManifest
	LoadManifest  = obs.LoadManifest
)

// TraceHandler serves the registry's trace tree as Chrome trace-event
// JSON (load the result in Perfetto or chrome://tracing), and
// EventsHandler drains the flight recorder ({"events": [...]}, newest
// last, ?n=N for the most recent N). Both handle a nil registry.
var (
	TraceHandler  = obs.TraceHandler
	EventsHandler = obs.EventsHandler
)

// WriteTraceFile writes the registry's trace tree to path as Chrome
// trace-event JSON. The export is canonical: sibling order and span ids
// are deterministic for a given run shape, so two same-seed runs differ
// only in timestamps.
var WriteTraceFile = obs.WriteTraceFile

// ValidateMetricName reports whether a metric name (with optional
// {label="value"} block) is well-formed; registration panics on names
// that fail it.
var ValidateMetricName = obs.ValidateMetricName

// Telemetry history re-exports (internal/obs/history, DESIGN.md §16):
// the in-process time-series store and alert engine the daemon uses to
// watch itself. All of it tolerates a nil *HistoryStore.
type (
	// HistoryStore samples a Registry into per-series ring buffers and
	// evaluates alert rules after every tick.
	HistoryStore = history.Store
	// HistoryConfig tunes a HistoryStore: interval, retention, rules,
	// and an injectable clock for deterministic tests.
	HistoryConfig = history.Config
	// AlertRule is one declarative threshold or burn-rate alert.
	AlertRule = history.Rule
	// AlertStatus is one rule's externally visible state.
	AlertStatus = history.AlertStatus
	// HistoryResult is one evaluated history query.
	HistoryResult = history.QueryResult
	// AlertsSummary is the manifest rollup of a run's alert activity.
	AlertsSummary = obs.AlertsSummary
)

// NewHistoryStore builds a history store over reg; call Start for the
// background sampler or Tick to sample synchronously.
func NewHistoryStore(reg *Registry, cfg HistoryConfig) *HistoryStore {
	return history.New(reg, cfg)
}

// LoadAlertRules reads and validates a JSON array of alert rules (the
// `fenrir -alert-rules` file format).
var LoadAlertRules = history.LoadRules

// QueryHistory evaluates fn ("latest", "delta", "rate", "max_over_time")
// over the newest samples of metric within rng (0 = whole window). stat
// selects a histogram rollup ("count", "sum", "p50", "p90", "p99");
// leave it empty for plain series. ok is false on an unknown fn or an
// unknown/empty series.
func QueryHistory(s *HistoryStore, metric, stat, fn string, rng time.Duration) (HistoryResult, bool) {
	f, ok := history.ParseFn(fn)
	if !ok {
		return HistoryResult{}, false
	}
	return s.Query(metric, stat, f, rng)
}
