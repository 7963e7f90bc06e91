package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler serving the registry in Prometheus
// text exposition format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Server is a runtime-introspection HTTP server mounting, on one mux:
//
//	/metrics       Prometheus text exposition of the registry
//	/debug/pprof/  the full net/http/pprof suite
//	/debug/trace   the current trace tree as Chrome trace-event JSON
//	/debug/events  the flight-recorder ring (?n=N limits the drain)
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	ln  net.Listener
	srv *http.Server
}

// NewServer binds addr (":0" picks a free port) and starts serving in a
// background goroutine. The caller owns the returned server and should
// Close it on shutdown.
func NewServer(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/trace", TraceHandler(r))
	mux.Handle("/debug/events", EventsHandler(r))
	s := &Server{Addr: ln.Addr().String(), ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return s, nil
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
