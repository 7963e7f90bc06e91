package fenrir

import (
	"net/http"

	"fenrir/internal/obs"
)

// Observability re-exports: the zero-dependency instrumentation layer
// from internal/obs, for users who want the same metrics the fenrir CLI
// produces (see DESIGN.md §6).
//
// Everything tolerates a nil *Registry: instrumented code paths then
// run exactly as if no instrumentation existed, so libraries can
// instrument unconditionally and let callers opt in.
type (
	// Registry holds named counters, gauges, and histograms plus one
	// rollup per stage name.
	Registry = obs.Registry
	// ObsServer serves /metrics, /debug/pprof, /debug/trace, and
	// /debug/events.
	ObsServer = obs.Server
)

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// MetricsHandler returns an http.Handler rendering the registry in
// Prometheus text exposition format, for mounting on an existing mux.
func MetricsHandler(r *Registry) http.Handler { return obs.Handler(r) }

// NewObsServer binds addr (":0" picks a free port) and serves /metrics
// and /debug/pprof/ in the background.
func NewObsServer(addr string, r *Registry) (*ObsServer, error) { return obs.NewServer(addr, r) }
