// Package obs is Fenrir's zero-dependency instrumentation layer: a
// metrics registry (counters, gauges, log-bucket histograms), stage
// spans, runtime endpoints (Prometheus text and pprof on one mux),
// and structured run manifests.
//
// The package is built for a pipeline whose hot paths run at memory
// speed: every read uses the monotonic clock (time.Since), metric
// handles are resolved once outside hot loops, and — the load-bearing
// contract — a nil *Registry is a no-op. Library code threads a
// *Registry through options structs and instruments unconditionally;
// when no observer is attached the nil receiver short-circuits every
// call, so instrumented and uninstrumented runs produce bit-identical
// results and indistinguishable benchmarks.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics and per-stage span rollups. All methods
// are safe for concurrent use, and all methods on a nil *Registry are
// no-ops returning nil handles (whose methods are in turn no-ops).
//
// Metric names follow Prometheus exposition syntax; a name may embed a
// label set verbatim, e.g. `fenrir_stage_duration_seconds{stage="similarity"}`.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	stages   []StageRecord // one rollup per stage name, first-End order
	start    time.Time
	logger   *slog.Logger
	flight   *FlightRecorder

	// Trace-tree state (see trace.go): monotone span ids and the active
	// root, both lock-free, and the bounded ring of completed spans,
	// guarded by mu. A nil root means tracing is off.
	nextSpanID atomic.Int64
	root       atomic.Pointer[Span]
	trace      *Ring[TraceRecord]

	// Cardinality governor state (see SetSeriesCap): per-family sets of
	// admitted tenant label values. Guarded by mu.
	seriesCap    int
	tenantSeries map[string]map[string]struct{}
}

// NewRegistry returns an empty registry anchored at the current time,
// with an attached flight recorder (see FlightRecorder).
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
		flight:   NewFlightRecorder(flightCap),
		trace:    NewRing[TraceRecord](traceCap),
	}
	r.logger = slog.New(&flightHandler{fr: r.flight})
	return r
}

// OtherTenant is the label value overflow tenant series aggregate into
// once a family reaches the registry's series cap (see SetSeriesCap).
const OtherTenant = "__other__"

// DroppedSeriesMetric counts series-creation requests the cardinality
// governor rewrote into the {tenant="__other__"} overflow series.
const DroppedSeriesMetric = "fenrir_obs_dropped_series_total"

// SetSeriesCap caps the number of distinct tenant="..." label values the
// registry will admit per metric family (base name). Beyond the cap, a
// request for a new tenant-labeled series resolves to the family's
// {tenant="__other__"} aggregate series instead, and DroppedSeriesMetric
// counts each rewritten request. Series without a tenant label — global
// counters and rollups, per-endpoint latencies — are never governed,
// which is what keeps daemon-wide SLOs exact while the per-tenant
// dimension saturates. n <= 0 removes the cap. Already
// admitted tenant series are seeded into the governor so a cap applied
// to a warm registry counts existing cardinality against the budget.
func (r *Registry) SetSeriesCap(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seriesCap = n
	if n <= 0 {
		r.tenantSeries = nil
		return
	}
	r.tenantSeries = make(map[string]map[string]struct{})
	seed := func(name string) {
		val, start, _ := tenantLabelValue(name)
		if start < 0 || val == OtherTenant {
			return
		}
		base, _ := splitName(name)
		set := r.tenantSeries[base]
		if set == nil {
			set = make(map[string]struct{})
			r.tenantSeries[base] = set
		}
		set[val] = struct{}{}
	}
	for name := range r.counters {
		seed(name)
	}
	for name := range r.gauges {
		seed(name)
	}
	for name := range r.hists {
		seed(name)
	}
}

// SeriesCap returns the current per-family tenant cardinality cap
// (0 = unlimited, and on a nil registry).
func (r *Registry) SeriesCap() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesCap
}

// tenantLabelValue finds a `tenant="value"` label inside name's label
// block and returns the value plus the [start, end) byte span of the
// value within name. start is -1 when the name carries no tenant label.
func tenantLabelValue(name string) (val string, start, end int) {
	const key = `tenant="`
	i := strings.Index(name, key)
	// Require a label-block boundary before the key so a metric named
	// e.g. fenrir_tenant="..." or a label key suffixed ...tenant never
	// matches: the governor only ever rewrites the tenant dimension.
	for i > 0 && name[i-1] != '{' && name[i-1] != ',' {
		next := strings.Index(name[i+1:], key)
		if next < 0 {
			return "", -1, -1
		}
		i += 1 + next
	}
	if i < 0 {
		return "", -1, -1
	}
	start = i + len(key)
	for j := start; j < len(name); j++ {
		switch name[j] {
		case '\\':
			j++
		case '"':
			return name[start:j], start, j
		}
	}
	return "", -1, -1
}

// governLocked applies the cardinality cap to a metric name, returning
// the (possibly rewritten) name the caller should register under. Must
// be called with r.mu held.
func (r *Registry) governLocked(name string) string {
	if r.seriesCap <= 0 || !strings.Contains(name, `tenant="`) {
		return name
	}
	val, start, end := tenantLabelValue(name)
	if start < 0 || val == OtherTenant {
		return name
	}
	base, _ := splitName(name)
	set := r.tenantSeries[base]
	if set == nil {
		set = make(map[string]struct{})
		r.tenantSeries[base] = set
	}
	if _, ok := set[val]; ok {
		return name
	}
	if len(set) < r.seriesCap {
		set[val] = struct{}{}
		return name
	}
	// Family is at capacity: this request lands in the overflow series.
	// Count the rewrite directly in the map — Counter() would re-enter mu.
	c, ok := r.counters[DroppedSeriesMetric]
	if !ok {
		c = &Counter{}
		r.counters[DroppedSeriesMetric] = c
	}
	c.Add(1)
	return name[:start] + OtherTenant + name[end:]
}

// Counter returns the named monotonically increasing counter, creating
// it on first use. Returns nil (a no-op handle) on a nil registry.
// First use validates the name (see mustValidName).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	name = r.governLocked(name)
	c, ok := r.counters[name]
	if !ok {
		mustValidName(name)
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	name = r.governLocked(name)
	g, ok := r.gauges[name]
	if !ok {
		mustValidName(name)
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the package's fixed log-scale buckets. Returns nil (a no-op handle)
// on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	name = r.governLocked(name)
	h, ok := r.hists[name]
	if !ok {
		mustValidName(name)
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil handle.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil handle.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. No-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta. No-op on a nil handle.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram buckets: fixed log-scale bounds 1e-9 × 4^i, wide enough to
// hold both sub-microsecond durations (in seconds) and large counts in
// the same shape. Fixed bounds keep Observe allocation-free and make
// every exposition comparable across runs.
const (
	histBuckets     = 32
	histFirstBound  = 1e-9
	histBucketRatio = 4.0
)

var histBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	v := histFirstBound
	for i := range b {
		b[i] = v
		v *= histBucketRatio
	}
	return b
}()

// Histogram is a fixed-bucket log-scale histogram. Observations land in
// the first bucket whose upper bound is >= the value; values beyond the
// last bound count only toward +Inf (count/sum).
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	over   atomic.Uint64 // observations above the last bound
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value. No-op on a nil handle.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(histBounds[:], v)
	if idx < histBuckets {
		h.counts[idx].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed monotonic time since t0, in seconds.
// No-op on a nil handle.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the log-scale
// buckets, Prometheus histogram_quantile style: find the bucket where
// the cumulative count crosses rank q·count, then interpolate linearly
// between the bucket's lower and upper bound. Consequences of that
// scheme, relied on by callers and tests:
//
//   - Quantile(1) is exactly the upper bound of the highest non-empty
//     bucket.
//   - Observations above the last finite bound (the +Inf bucket) clamp
//     to the last finite bound.
//   - An empty (or nil) histogram returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	lower := 0.0
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c > 0 {
			upper := histBounds[i]
			if float64(cum)+float64(c) >= rank {
				frac := (rank - float64(cum)) / float64(c)
				if frac < 0 {
					frac = 0
				}
				return lower + (upper-lower)*frac
			}
			cum += c
		}
		lower = histBounds[i]
	}
	// The rank falls in the +Inf overflow bucket: clamp to the last
	// finite bound, the most honest answer fixed buckets can give.
	return histBounds[histBuckets-1]
}

// HistogramSummary is a plain-data rollup of one histogram: count, sum,
// and the p50/p90/p99 estimates manifests and status endpoints surface.
// Quantiles are 0 (not NaN, which JSON cannot carry) when empty.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary rolls the histogram up (zero value on a nil handle).
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{Count: h.Count(), Sum: h.Sum()}
	if s.Count > 0 {
		s.P50 = h.Quantile(0.50)
		s.P90 = h.Quantile(0.90)
		s.P99 = h.Quantile(0.99)
	}
	return s
}

// Values is one read of a registry: every counter's and gauge's value
// and every histogram's handle, keyed by full series name. Counters
// also carry the bounded rings' eviction totals,
// fenrir_trace_spans_evicted_total and fenrir_flight_events_evicted_total,
// so every reader reports them (zero included — a zero is the proof
// nothing was silently dropped).
type Values struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]*Histogram
}

// Read returns the registry's current values. /metrics, run manifests
// and telemetry history all read the registry through it. Returns the
// zero Values (nil maps) on a nil registry.
func (r *Registry) Read() Values {
	if r == nil {
		return Values{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := Values{
		Counters:   make(map[string]int64, len(r.counters)+2),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]*Histogram, len(r.hists)),
	}
	for k, c := range r.counters {
		v.Counters[k] = c.Value()
	}
	// r.mu guards the trace ring; the flight recorder's own lock nests
	// inside it.
	v.Counters["fenrir_trace_spans_evicted_total"] = int64(r.trace.Evicted())
	v.Counters["fenrir_flight_events_evicted_total"] = int64(r.flight.Evicted())
	for k, g := range r.gauges {
		v.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		v.Histograms[k] = h
	}
	return v
}

// splitName splits a metric name into its base and an optional verbatim
// label block (without braces): `m{a="b"}` → (`m`, `a="b"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// ValidateMetricName checks that a metric name is well-formed Prometheus
// exposition syntax: a non-empty base matching [a-zA-Z_:][a-zA-Z0-9_:]*,
// optionally followed by exactly one balanced {key="value",...} label
// block whose keys match [a-zA-Z_][a-zA-Z0-9_]* and whose values are
// double-quoted with backslash escapes. Registration rejects malformed
// names up front so a typo fails fast in tests instead of silently
// corrupting the /metrics exposition.
func ValidateMetricName(name string) error {
	base := name
	labels := ""
	hasLabels := false
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return fmt.Errorf("label block does not end with '}'")
		}
		base, labels = name[:i], name[i+1:len(name)-1]
		hasLabels = true
	}
	if base == "" {
		return fmt.Errorf("empty base name")
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("base name byte %d (%q) invalid", i, c)
		}
	}
	if !hasLabels {
		return nil
	}
	if labels == "" {
		return fmt.Errorf("empty label block")
	}
	// Parse key="value" pairs separated by commas; quoted values may
	// contain any byte behind backslash escapes, but braces and quotes
	// outside a quoted value are malformed.
	i := 0
	for {
		start := i
		for i < len(labels) && labels[i] != '=' {
			c := labels[i]
			ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > start && c >= '0' && c <= '9')
			if !ok {
				return fmt.Errorf("label key byte %d (%q) invalid", i, c)
			}
			i++
		}
		if i == start {
			return fmt.Errorf("empty label key at byte %d", i)
		}
		if i >= len(labels) {
			return fmt.Errorf("label %q has no value", labels[start:i])
		}
		i++ // '='
		if i >= len(labels) || labels[i] != '"' {
			return fmt.Errorf("label value at byte %d is not quoted", i)
		}
		i++
		for i < len(labels) && labels[i] != '"' {
			if labels[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(labels) {
			return fmt.Errorf("unterminated label value")
		}
		i++ // closing quote
		if i == len(labels) {
			return nil
		}
		if labels[i] != ',' {
			return fmt.Errorf("expected ',' between labels at byte %d", i)
		}
		i++
	}
}

// mustValidName panics on a malformed metric name; called once per
// metric at registration, never on the hot path.
func mustValidName(name string) {
	if err := ValidateMetricName(name); err != nil {
		panic(fmt.Sprintf("obs: invalid metric name %q: %v", name, err))
	}
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// expoSeries is one series' rendered exposition lines, grouped under
// its family for the globally sorted WritePrometheus output.
type expoSeries struct {
	name  string // full series name, the within-family sort key
	lines string
}

// expoFamily is one metric family (shared base name): its TYPE and the
// series that carry it, sorted by full series name at emission.
type expoFamily struct {
	kind   string
	series []expoSeries
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), deterministically ordered: families sorted by
// base metric name, series within a family sorted by their full name
// (label block included). Two back-to-back scrapes of an unchanged
// registry are byte-identical. No-op on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) {
	v := r.Read()
	families := make(map[string]*expoFamily)
	add := func(name, kind, lines string) {
		base, _ := splitName(name)
		f := families[base]
		if f == nil {
			f = &expoFamily{kind: kind}
			families[base] = f
		}
		f.series = append(f.series, expoSeries{name: name, lines: lines})
	}
	for name, c := range v.Counters {
		add(name, "counter", fmt.Sprintf("%s %d\n", name, c))
	}
	for name, g := range v.Gauges {
		add(name, "gauge", fmt.Sprintf("%s %g\n", name, g))
	}
	for name, h := range v.Histograms {
		base, labels := splitName(name)
		var b strings.Builder
		var cum uint64
		for i := 0; i < histBuckets; i++ {
			cum += h.counts[i].Load()
			if cum == 0 {
				continue // suppress the empty low tail
			}
			fmt.Fprintf(&b, "%s_bucket{%s} %d\n", base,
				joinLabels(labels, fmt.Sprintf("le=%q", formatBound(histBounds[i]))), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{%s} %d\n", base, joinLabels(labels, `le="+Inf"`), h.Count())
		if labels == "" {
			fmt.Fprintf(&b, "%s_sum %g\n", base, h.Sum())
			fmt.Fprintf(&b, "%s_count %d\n", base, h.Count())
		} else {
			fmt.Fprintf(&b, "%s_sum{%s} %g\n", base, labels, h.Sum())
			fmt.Fprintf(&b, "%s_count{%s} %d\n", base, labels, h.Count())
		}
		add(name, "histogram", b.String())
	}
	for _, base := range sortedKeys(families) {
		f := families[base]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].name < f.series[j].name })
		fmt.Fprintf(w, "# TYPE %s %s\n", base, f.kind)
		for _, s := range f.series {
			io.WriteString(w, s.lines) //nolint:errcheck // best-effort exposition
		}
	}
}

func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
