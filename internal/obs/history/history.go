// Package history makes a Fenrir daemon self-observing instead of
// merely inspectable: it is an in-process time-series store, alert
// engine, and retention layer over the live obs.Registry.
//
// A sampler (Start, or Tick under an injectable clock) scrapes the
// registry every interval into fixed-capacity per-series rings
// (obs.Ring) of absolute values: counters and gauges as read, and
// histograms rolled up into five derived series (count, sum, p50, p90,
// p99). Query helpers — Rate, Delta, MaxOverTime, Latest — answer the
// questions point-in-time /metrics cannot: "what was p99 admission
// over the last 10 minutes?", "how fast is the eviction counter
// moving?". The whole retention window is exported as JSON via
// TimelineHandler (/debug/timeline) and single values via QueryHandler
// (/v1/query).
//
// On top of the rings sits a deterministic alert rule engine (alerts.go)
// evaluated after every sample tick: threshold rules and dual-window SLO
// burn-rate rules, with firing/resolved transitions logged to the flight
// recorder and counted in the registry itself — the daemon's own alert
// history is therefore sampled by the daemon's own sampler.
//
// Everything is virtual-time friendly: Config.Now injects the clock, and
// Tick advances one sample synchronously, so tests drive the store
// deterministically without a goroutine or a real ticker.
package history

import (
	"sync"
	"time"

	"fenrir/internal/obs"
)

// Defaults: 10s sampling × 360 samples = a one-hour retention window.
const (
	DefaultEvery  = 10 * time.Second
	DefaultRetain = 360
)

// Config tunes a Store. The zero value samples every DefaultEvery into
// DefaultRetain-deep rings with no alert rules, using the real clock.
type Config struct {
	// Every is the sampling interval Start's background goroutine uses
	// (<= 0 means DefaultEvery). Tick ignores it.
	Every time.Duration
	// Retain bounds every series ring to this many samples (<= 0 means
	// DefaultRetain). Memory is O(series × Retain).
	Retain int
	// Rules are the alert rules evaluated after every sample tick.
	Rules []Rule
	// Now injects the clock (nil means time.Now). Samples are stamped
	// and alert windows measured with it, so a virtual clock makes the
	// whole store — rings, rates, burn windows — deterministic.
	Now func() time.Time
}

func (c Config) every() time.Duration {
	if c.Every <= 0 {
		return DefaultEvery
	}
	return c.Every
}

func (c Config) retain() int {
	if c.Retain <= 0 {
		return DefaultRetain
	}
	return c.Retain
}

// seriesKind tells counters, whose decrease restarts the window, from
// gauges.
type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
)

func (k seriesKind) String() string {
	if k == kindCounter {
		return "counter"
	}
	return "gauge"
}

// series is one metric's bounded history of absolute samples. last is
// the newest sample, kept so push can spot a counter that went down.
type series struct {
	kind seriesKind
	vals *obs.Ring[float64]
	last float64
}

func (s *series) push(v float64) {
	if s.kind == kindCounter && s.vals.Len() > 0 && v < s.last {
		// Counter reset (obs counters never go down, but stay honest):
		// the window restarts at the new value.
		s.vals.Reset()
	}
	s.vals.Push(v)
	s.last = v
}

// Store is the in-process time-series database: per-series rings fed by
// sampling a live registry, plus the alert engine state. All methods
// are safe for concurrent use; a nil Store is a no-op (queries miss,
// Tick does nothing), preserving the obs layer's nil contract.
type Store struct {
	reg *obs.Registry
	cfg Config

	mu     sync.Mutex
	times  *obs.Ring[time.Time] // sample times, one per tick
	ticks  uint64               // lifetime sample count (not bounded by the ring)
	series map[string]*series
	alerts []*alertState

	firingGauge *obs.Gauge

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a store over reg. The registry may be nil (every tick then
// samples nothing, and alerts never fire); rules are validated lazily —
// use Rule.Validate or LoadRules to reject malformed rules up front.
func New(reg *obs.Registry, cfg Config) *Store {
	s := &Store{
		reg:         reg,
		cfg:         cfg,
		times:       obs.NewRing[time.Time](cfg.retain()),
		series:      make(map[string]*series),
		firingGauge: reg.Gauge(MetricAlertsFiring),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for i := range cfg.Rules {
		s.alerts = append(s.alerts, newAlertState(cfg.Rules[i]))
	}
	s.firingGauge.Set(0)
	return s
}

// now reads the injected clock.
func (s *Store) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// Start launches the background sampler goroutine, ticking every
// Config.Every until Stop. Safe to call once; no-op on a nil store.
func (s *Store) Start() {
	if s == nil {
		return
	}
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.cfg.every())
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.Tick()
				}
			}
		}()
	})
}

// Stop halts the sampler goroutine (if Start ran) and takes one final
// sample so the rings and alert states reflect the very end of the run.
// Safe on a nil store and safe to call more than once.
func (s *Store) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() {
		close(s.stop)
		s.startOnce.Do(func() { close(s.done) }) // Start never ran
		<-s.done
		s.Tick()
	})
}

// Tick takes one sample: scrape the registry into the rings, then
// evaluate every alert rule against the updated windows. Deterministic
// given the registry contents and the injected clock. No-op on a nil
// store.
func (s *Store) Tick() {
	if s == nil {
		return
	}
	now := s.now()
	vals := s.reg.Read()
	s.mu.Lock()
	s.times.Push(now)
	s.ticks++
	for name, v := range vals.Counters {
		s.sampleLocked(name, kindCounter, float64(v))
	}
	for name, v := range vals.Gauges {
		s.sampleLocked(name, kindGauge, v)
	}
	for name, hist := range vals.Histograms {
		h := hist.Summary()
		s.sampleLocked(name+statSep+"count", kindCounter, float64(h.Count))
		s.sampleLocked(name+statSep+"sum", kindCounter, h.Sum)
		s.sampleLocked(name+statSep+"p50", kindGauge, h.P50)
		s.sampleLocked(name+statSep+"p90", kindGauge, h.P90)
		s.sampleLocked(name+statSep+"p99", kindGauge, h.P99)
	}
	s.evalAlertsLocked(now)
	s.mu.Unlock()
}

func (s *Store) sampleLocked(key string, kind seriesKind, v float64) {
	sr := s.series[key]
	if sr == nil {
		sr = &series{kind: kind, vals: obs.NewRing[float64](s.cfg.retain())}
		s.series[key] = sr
		if kind == kindCounter {
			// Counters register on first touch, so one born after the
			// store's first sample was zero at every earlier tick.
			// Backfill those zeros: the window then starts at 0, so
			// windowed delta/rate queries count the birth increment
			// instead of writing it off as pre-existing total.
			// (Gauges get no backfill — they have no meaningful prior
			// value, and phantom zeros would corrupt max_over_time.)
			for i := 1; i < s.times.Len(); i++ {
				sr.push(0)
			}
		}
	}
	sr.push(v)
}

// statSep joins a histogram metric name with its derived stat in series
// keys: `fenrir_serve_ingest_seconds|p99`. The pipe cannot occur in a
// valid metric name, so keys never collide.
const statSep = "|"

// Key builds the series key for a metric plus an optional histogram
// stat ("count", "sum", "p50", "p90", "p99"; empty for plain series).
func Key(metric, stat string) string {
	if stat == "" {
		return metric
	}
	return metric + statSep + stat
}

// Fn names a query function over a series window.
type Fn string

const (
	// FnLatest returns the newest sample's value.
	FnLatest Fn = "latest"
	// FnDelta returns last − first over the range: a counter's exact net
	// change across the sampled window.
	FnDelta Fn = "delta"
	// FnRate returns delta divided by the elapsed seconds between the
	// first and last sample in range (per-second rate).
	FnRate Fn = "rate"
	// FnMax returns the maximum absolute value over the range.
	FnMax Fn = "max_over_time"
)

// ParseFn maps the wire spelling (including the "max" shorthand) to a
// Fn; empty means FnLatest.
func ParseFn(s string) (Fn, bool) {
	switch s {
	case "", "latest":
		return FnLatest, true
	case "delta":
		return FnDelta, true
	case "rate":
		return FnRate, true
	case "max", "max_over_time":
		return FnMax, true
	}
	return "", false
}

// QueryResult is one evaluated query: the value plus the window it was
// computed over.
type QueryResult struct {
	Metric  string    `json:"metric"`
	Stat    string    `json:"stat,omitempty"`
	Fn      Fn        `json:"fn"`
	Value   float64   `json:"value"`
	Samples int       `json:"samples"`
	From    time.Time `json:"from"`
	To      time.Time `json:"to"`
}

// Query evaluates fn over the newest samples of metric (plus optional
// histogram stat) within rng of the last sample (rng <= 0 means the
// whole retained window). ok is false when the series is unknown or
// empty. Nil store misses everything.
func (s *Store) Query(metric, stat string, fn Fn, rng time.Duration) (QueryResult, bool) {
	if s == nil {
		return QueryResult{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queryLocked(metric, stat, fn, rng)
}

func (s *Store) queryLocked(metric, stat string, fn Fn, rng time.Duration) (QueryResult, bool) {
	sr := s.series[Key(metric, stat)]
	if sr == nil {
		return QueryResult{}, false
	}
	vals := sr.vals.Items()
	times := s.times.Items()
	// A series younger than the store only occupies the newest samples;
	// align it against the tail of the time ring.
	times = times[len(times)-len(vals):]
	lo := 0
	if rng > 0 {
		cut := times[len(times)-1].Add(-rng)
		for lo < len(times)-1 && times[lo].Before(cut) {
			lo++
		}
	}
	vals, times = vals[lo:], times[lo:]
	res := QueryResult{
		Metric:  metric,
		Stat:    stat,
		Fn:      fn,
		Samples: len(vals),
		From:    times[0],
		To:      times[len(times)-1],
	}
	switch fn {
	case FnLatest:
		res.Value = vals[len(vals)-1]
	case FnDelta:
		res.Value = vals[len(vals)-1] - vals[0]
	case FnRate:
		secs := times[len(times)-1].Sub(times[0]).Seconds()
		if secs > 0 {
			res.Value = (vals[len(vals)-1] - vals[0]) / secs
		}
	case FnMax:
		max := vals[0]
		for _, v := range vals[1:] {
			if v > max {
				max = v
			}
		}
		res.Value = max
	default:
		return QueryResult{}, false
	}
	return res, true
}

// Timeline is one series' full retained window, for /debug/timeline.
type Timeline struct {
	Kind   string    `json:"kind"`
	Times  []int64   `json:"times_unix_ms"`
	Values []float64 `json:"values"`
}

// Timelines exports every series' retained window, keyed by series key
// (histogram rollups carry their |stat suffix), with keys sorted for a
// deterministic encoding order. Nil store returns nil.
func (s *Store) Timelines() map[string]Timeline {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	times := s.times.Items()
	out := make(map[string]Timeline, len(s.series))
	for key, sr := range s.series {
		vals := sr.vals.Items()
		st := times[len(times)-len(vals):]
		ms := make([]int64, len(st))
		for i, t := range st {
			ms[i] = t.UnixMilli()
		}
		out[key] = Timeline{Kind: sr.kind.String(), Times: ms, Values: vals}
	}
	return out
}

// Ticks returns the lifetime sample count.
func (s *Store) Ticks() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// Interval returns the configured sampling interval.
func (s *Store) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.cfg.every()
}

// Retain returns the configured per-series sample retention.
func (s *Store) Retain() int {
	if s == nil {
		return 0
	}
	return s.cfg.retain()
}
