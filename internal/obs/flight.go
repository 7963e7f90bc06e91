package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// flightCap bounds the flight-recorder ring. 1024 events is hours of
// daemon incident history (quarantines, 429s, checkpoints) at a few KB,
// while a batch scenario run rarely emits more than a few dozen.
const flightCap = 1024

// Event is one structured flight-recorder entry: a leveled message plus
// flattened key=value attributes, stamped with a monotone sequence
// number so consumers can detect ring eviction between drains.
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Level string    `json:"level"`
	Msg   string    `json:"msg"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// FlightRecorder is a bounded in-memory ring of Events. It is the
// landing zone for the registry's slog handler: cheap enough to leave
// on permanently, drained on demand via Events / /debug/events, and
// folded into run manifests. The zero number of events is valid; a nil
// recorder drops everything.
type FlightRecorder struct {
	mu   sync.Mutex
	ring *Ring[Event] // its eviction count is fenrir_flight_events_evicted_total
	seq  uint64
}

// NewFlightRecorder builds a recorder holding at most capacity events
// (the newest win). Capacity below 1 is clamped to 1.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{ring: NewRing[Event](capacity)}
}

func (fr *FlightRecorder) add(e Event) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.seq++
	e.Seq = fr.seq
	fr.ring.Push(e)
}

// Evicted returns how many events the ring has overwritten since
// creation — nonzero means Events no longer reaches back to the start
// of the run. Returns 0 on a nil recorder.
func (fr *FlightRecorder) Evicted() uint64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.ring.Evicted()
}

// Events returns up to n of the most recent events, oldest first.
// n <= 0 means all retained events. Nil recorder returns nil.
func (fr *FlightRecorder) Events(n int) []Event {
	events, _ := fr.Snapshot(n)
	return events
}

// Snapshot returns up to n of the most recent events (oldest first,
// n <= 0 means all) together with the eviction count, both read under a
// single lock acquisition. The pair is therefore mutually consistent: a
// full ring's oldest returned event always has Seq == evicted+1, with
// no gaps anywhere in the window — reading Events and Evicted
// separately can race a concurrent writer and see an eviction count
// from a later ring state than the events. Nil recorder returns
// (nil, 0).
func (fr *FlightRecorder) Snapshot(n int) (events []Event, evicted uint64) {
	if fr == nil {
		return nil, 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := fr.ring.Items()
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out, fr.ring.Evicted()
}

// flightHandler is the slog.Handler that feeds a FlightRecorder.
// Attributes from WithAttrs and group prefixes from WithGroup are
// pre-rendered into the handler so Handle stays a flat copy.
type flightHandler struct {
	fr     *FlightRecorder
	prefix string // dotted group path, e.g. "serve."
	attrs  []Attr // attrs bound via WithAttrs, already prefixed
}

func (h *flightHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *flightHandler) Handle(_ context.Context, rec slog.Record) error {
	e := Event{
		Time:  rec.Time,
		Level: rec.Level.String(),
		Msg:   rec.Message,
	}
	if len(h.attrs) > 0 || rec.NumAttrs() > 0 {
		e.Attrs = make([]Attr, 0, len(h.attrs)+rec.NumAttrs())
		e.Attrs = append(e.Attrs, h.attrs...)
		rec.Attrs(func(a slog.Attr) bool {
			e.Attrs = appendFlatAttr(e.Attrs, h.prefix, a)
			return true
		})
	}
	h.fr.add(e)
	return nil
}

func (h *flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := &flightHandler{fr: h.fr, prefix: h.prefix}
	nh.attrs = append([]Attr(nil), h.attrs...)
	for _, a := range attrs {
		nh.attrs = appendFlatAttr(nh.attrs, h.prefix, a)
	}
	return nh
}

func (h *flightHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return &flightHandler{fr: h.fr, prefix: h.prefix + name + ".", attrs: h.attrs}
}

// appendFlatAttr flattens one slog.Attr (recursing into groups) into
// the Event attr list with deterministic string rendering.
func appendFlatAttr(dst []Attr, prefix string, a slog.Attr) []Attr {
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		p := prefix
		if a.Key != "" {
			p += a.Key + "."
		}
		for _, ga := range v.Group() {
			dst = appendFlatAttr(dst, p, ga)
		}
		return dst
	}
	if a.Key == "" {
		return dst
	}
	return append(dst, Attr{Key: prefix + a.Key, Value: attrValue(v.Any())})
}

// noopHandler discards records. The module targets Go 1.22, which
// predates slog.DiscardHandler, so we carry our own.
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopHandler{} }
func (noopHandler) WithGroup(string) slog.Handler             { return noopHandler{} }

var noopLogger = slog.New(noopHandler{})

// Logger returns the registry's structured logger, whose records land
// in the flight-recorder ring. On a nil registry it returns a logger
// that discards everything, preserving the no-op contract.
func (r *Registry) Logger() *slog.Logger {
	if r == nil {
		return noopLogger
	}
	return r.logger
}

// Events drains up to n of the most recent flight-recorder events,
// oldest first (n <= 0 means all). Nil registry returns nil.
func (r *Registry) Events(n int) []Event {
	if r == nil {
		return nil
	}
	return r.flight.Events(n)
}

// EventsHandler serves the flight recorder as JSON:
//
//	GET /debug/events?n=50  ->  {"events":[...]}
//
// n defaults to all retained events.
func EventsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 0
		if s := req.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(struct {
			Events []Event `json:"events"`
		}{Events: r.Events(n)})
	})
}
