package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// --- histogram quantiles (satellite: test coverage) ---

func TestHistogramQuantileEmpty(t *testing.T) {
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Fatal("nil histogram quantile is not NaN")
	}
	h := &Histogram{}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile is not NaN")
	}
	if s := h.Summary(); s.Count != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("empty summary = %+v, want zeros", s)
	}
}

func TestHistogramQuantileExactBounds(t *testing.T) {
	// An observation exactly on a bucket bound lands in that bucket
	// (SearchFloat64s picks the first bound >= v), so Quantile(1) must
	// return the bound itself.
	h := &Histogram{}
	bound := histBounds[10]
	h.Observe(bound)
	if got := h.Quantile(1); got != bound {
		t.Fatalf("Quantile(1) = %g, want bound %g", got, bound)
	}
	// With every observation in one bucket, every quantile stays within
	// [lower, upper].
	lower := histBounds[9]
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.Quantile(q)
		if got < lower || got > bound {
			t.Fatalf("Quantile(%g) = %g outside bucket [%g, %g]", q, got, lower, bound)
		}
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// Four observations in a single bucket: rank q·4 interpolates
	// linearly between the bucket's lower and upper bound.
	h := &Histogram{}
	upper := histBounds[12]
	lower := histBounds[11]
	for i := 0; i < 4; i++ {
		h.Observe(upper) // all land in bucket 12
	}
	want := lower + (upper-lower)*0.5 // rank 2 of 4 → halfway
	if got := h.Quantile(0.5); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Quantile(0.5) = %g, want %g", got, want)
	}
	if got := h.Quantile(1); got != upper {
		t.Fatalf("Quantile(1) = %g, want %g", got, upper)
	}
}

func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	// 9 observations in bucket 5, 1 in bucket 20: p50 must come from the
	// low bucket, p99 from the high one.
	h := &Histogram{}
	for i := 0; i < 9; i++ {
		h.Observe(histBounds[5])
	}
	h.Observe(histBounds[20])
	if got := h.Quantile(0.5); got > histBounds[5] {
		t.Fatalf("p50 = %g, want <= %g", got, histBounds[5])
	}
	if got := h.Quantile(0.99); got <= histBounds[19] {
		t.Fatalf("p99 = %g, want inside bucket 20 (> %g)", got, histBounds[19])
	}
}

func TestHistogramQuantileOverflow(t *testing.T) {
	// Observations beyond the last bound live in the +Inf bucket; the
	// estimator clamps them to the last finite bound rather than
	// inventing a value.
	h := &Histogram{}
	h.Observe(1e30)
	h.Observe(1e30)
	last := histBounds[histBuckets-1]
	if got := h.Quantile(0.5); got != last {
		t.Fatalf("overflow quantile = %g, want last bound %g", got, last)
	}
	if got := h.Quantile(1); got != last {
		t.Fatalf("overflow Quantile(1) = %g, want %g", got, last)
	}
}

// --- metric-name validation (satellite) ---

func TestValidateMetricName(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
	}{
		{"fenrir_stage_seconds", true},
		{"a", true},
		{"_hidden", true},
		{"ns:sub:metric", true},
		{`m{a="b"}`, true},
		{`m{a="b",cd_e="f g"}`, true},
		{`m{a="quoted \" brace } comma ,"}`, true},
		{`m{a=""}`, true},

		{"", false},               // empty base
		{"9leading", false},       // digit first
		{"has space", false},      // bad byte
		{"has-dash", false},       // bad byte
		{`m{a="b"`, false},        // unbalanced: no closing brace
		{`m{a="b"}}`, false},      // unbalanced: extra closing brace
		{`m{}`, false},            // empty label block
		{`{a="b"}`, false},        // labels but no base
		{`m{="b"}`, false},        // empty key
		{`m{a}`, false},           // key without value
		{`m{a=b}`, false},         // unquoted value
		{`m{a="b}`, false},        // unterminated value
		{`m{a="b" c="d"}`, false}, // missing comma
		{`m{a="b",}`, false},      // trailing comma → empty key
		{`m{1a="b"}`, false},      // key starts with digit
		{`m{a="b"}x`, false},      // trailing junk after block
	}
	for _, tc := range cases {
		err := ValidateMetricName(tc.name)
		if tc.ok && err != nil {
			t.Errorf("ValidateMetricName(%q) = %v, want ok", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ValidateMetricName(%q) = nil, want error", tc.name)
		}
	}
}

func TestRegistrationPanicsOnMalformedName(t *testing.T) {
	r := NewRegistry()
	for _, f := range []func(){
		func() { r.Counter(`bad{`) },
		func() { r.Histogram("") },
		func() { r.Gauge("has space") },
		func() { r.Histogram(`m{a=b}`) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("malformed name registered without panic")
				}
			}()
			f()
		}()
	}
}

// --- stage exposition ---

// Each stage is timed once, in fenrir_stage_duration_seconds{stage}: its
// _count is the stage's runs and its _sum the stage's seconds.
func TestStageDurationExposedAsHistogram(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("similarity").End()
	r.StartSpan("similarity").End()
	r.StartSpan("cluster").End()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE fenrir_stage_duration_seconds histogram",
		`fenrir_stage_duration_seconds_count{stage="similarity"} 2`,
		`fenrir_stage_duration_seconds_sum{stage="similarity"} `,
		`fenrir_stage_duration_seconds_count{stage="cluster"} 1`,
		`fenrir_stage_duration_seconds_sum{stage="cluster"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fenrir_stage_seconds") || strings.Contains(out, "fenrir_stage_runs_total") {
		t.Fatalf("stage time exported twice:\n%s", out)
	}
}

// --- trace trees (tentpole) ---

func TestTraceTreeShape(t *testing.T) {
	r := NewRegistry()
	root := r.BeginTrace("run/test")
	stage := r.StartSpan("similarity")
	tile := stage.Child("tile")
	tile.SetAttr("rows", 4)
	tile.SetLane(2)
	tile.End()
	stage.SetItems(16)
	stage.End()
	root.End()

	recs := r.TraceRecords()
	if len(recs) != 3 {
		t.Fatalf("trace records = %d, want 3", len(recs))
	}
	byName := map[string]TraceRecord{}
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	rr, ok := byName["run/test"]
	if !ok || rr.Parent != 0 {
		t.Fatalf("root record wrong: %+v", rr)
	}
	sr := byName["similarity"]
	if sr.Parent != rr.ID {
		t.Fatalf("stage parent = %d, want root %d", sr.Parent, rr.ID)
	}
	tr := byName["tile"]
	if tr.Parent != sr.ID || tr.Lane != 2 {
		t.Fatalf("tile record wrong: %+v", tr)
	}
	if tr.attrKey() != "rows=4" {
		t.Fatalf("tile attrs = %q", tr.attrKey())
	}
	// Only the top-level stage feeds StageRecords — never the root or
	// the tile child — so manifest stage accounting stays truthful.
	stages := r.StageSummary()
	if len(stages) != 1 || stages[0].Name != "similarity" {
		t.Fatalf("stage records = %+v, want only similarity", stages)
	}
}

// A Child span directly under the run root is still trace-only: the
// serve daemon opens one per request, so letting it append StageRecords
// would grow the stage log without bound over a daemon's lifetime.
func TestRootChildIsNotAStage(t *testing.T) {
	r := NewRegistry()
	root := r.BeginTrace("serve")
	for i := 0; i < 3; i++ {
		sp := root.Child("request")
		sp.End()
	}
	if stages := r.StageSummary(); len(stages) != 0 {
		t.Fatalf("root children created %d stage records, want 0", len(stages))
	}
	if recs := r.TraceRecords(); len(recs) != 3 || recs[0].Name != "request" {
		t.Fatalf("trace records = %+v, want 3 request spans", recs)
	}
}

func TestChildIsNoOpWithoutTrace(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("stage")
	if c := sp.Child("tile"); c != nil {
		t.Fatal("Child returned live span on untraced registry")
	}
	sp.End()
	if got := r.TraceRecords(); len(got) != 0 {
		t.Fatalf("untraced registry recorded %d trace records", len(got))
	}
}

func TestNilTraceAndFlightAPI(t *testing.T) {
	var r *Registry
	if r.BeginTrace("x") != nil || r.TraceRoot() != nil {
		t.Fatal("nil registry returned a span")
	}
	var sp *Span
	c := sp.Child("y")
	c.SetAttr("k", "v")
	c.SetLane(1)
	if c.End() != 0 {
		t.Fatal("nil child span measured time")
	}
	if r.TraceRecords() != nil || r.Events(10) != nil {
		t.Fatal("nil registry returned data")
	}
	if err := r.WriteTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
	r.Logger().Info("dropped", "k", "v") // must not panic
}

// normalizeTrace decodes a trace export and zeros the timing fields, so
// two runs can be compared structurally.
func normalizeTrace(t *testing.T, data []byte) string {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		delete(ev, "ts")
		delete(ev, "dur")
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// runTraceScenario builds one synthetic traced run, ending the per-tile
// children in the given order to model worker-completion nondeterminism.
func runTraceScenario(order []int) *Registry {
	r := NewRegistry()
	root := r.BeginTrace("run/synthetic")
	stage := r.StartSpan("similarity")
	tiles := make([]*Span, len(order))
	for i := range tiles {
		tiles[i] = stage.Child("tile")
		tiles[i].SetAttr("row0", i*4)
		tiles[i].SetLane(1 + i%2)
	}
	for _, i := range order {
		tiles[i].End()
	}
	stage.End()
	sweep := r.StartSpan("cluster")
	for i := 0; i < 3; i++ {
		it := sweep.Child("sweep")
		it.SetAttr("threshold", float64(i)*0.1)
		it.End()
	}
	sweep.End()
	root.End()
	return r
}

func TestWriteTraceDeterministicAcrossCompletionOrder(t *testing.T) {
	var a, b strings.Builder
	if err := runTraceScenario([]int{0, 1, 2, 3}).WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := runTraceScenario([]int{3, 1, 0, 2}).WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	na := normalizeTrace(t, []byte(a.String()))
	nb := normalizeTrace(t, []byte(b.String()))
	if na != nb {
		t.Fatalf("trace trees differ across completion order:\n%s\n---\n%s", na, nb)
	}
	// The export must actually contain the nested structure.
	if !strings.Contains(na, `"run/synthetic"`) || !strings.Contains(na, `"tile"`) ||
		!strings.Contains(na, `"sweep"`) {
		t.Fatalf("trace export missing spans:\n%s", na)
	}
}

func TestWriteTraceIncludesOpenRoot(t *testing.T) {
	// A live daemon exports mid-run: the open root must still anchor its
	// finished children.
	r := NewRegistry()
	r.BeginTrace("serve")
	req := r.TraceRoot().Child("request")
	req.SetAttr("path", "/v1/tenants/b-root")
	req.End()
	var sb strings.Builder
	if err := r.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	n := normalizeTrace(t, []byte(sb.String()))
	if !strings.Contains(n, `"serve"`) || !strings.Contains(n, `"request"`) {
		t.Fatalf("open-root export missing spans:\n%s", n)
	}
}

func TestTraceHandlerEndpoint(t *testing.T) {
	r := NewRegistry()
	r.BeginTrace("run/http").Child("child").End()
	rec := httptest.NewRecorder()
	TraceHandler(r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	normalizeTrace(t, rec.Body.Bytes()) // asserts valid JSON
}

// --- flight recorder (tentpole) ---

func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	h := &flightHandler{fr: fr}
	log := slog.New(h)
	for i := 0; i < 10; i++ {
		log.Info("event", "i", i)
	}
	evs := fr.Events(0)
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	// Newest win; oldest-first order; monotone seq survives eviction.
	for k, ev := range evs {
		if want := uint64(7 + k); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", k, ev.Seq, want)
		}
		if ev.Msg != "event" || len(ev.Attrs) != 1 || ev.Attrs[0].Key != "i" {
			t.Fatalf("event %d = %+v", k, ev)
		}
	}
	if got := fr.Events(2); len(got) != 2 || got[1].Seq != 10 {
		t.Fatalf("Events(2) = %+v", got)
	}
}

func TestFlightHandlerGroupsAndWithAttrs(t *testing.T) {
	r := NewRegistry()
	log := r.Logger().With("tenant", "b-root").WithGroup("serve")
	log.Warn("queue full", "depth", 256)
	evs := r.Events(1)
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if ev.Level != "WARN" || ev.Msg != "queue full" {
		t.Fatalf("event = %+v", ev)
	}
	got := map[string]string{}
	for _, a := range ev.Attrs {
		got[a.Key] = a.Value
	}
	if got["tenant"] != "b-root" || got["serve.depth"] != "256" {
		t.Fatalf("attrs = %+v", ev.Attrs)
	}
}

func TestEventsHandlerEndpoint(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		r.Logger().Info("tick", "i", i)
	}
	get := func(q string) (int, string) {
		rec := httptest.NewRecorder()
		EventsHandler(r).ServeHTTP(rec,
			httptest.NewRequest(http.MethodGet, "/debug/events"+q, nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get("?n=2")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var doc struct {
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 2 || doc.Events[1].Seq != 5 {
		t.Fatalf("drained = %+v", doc.Events)
	}
	if code, _ := get("?n=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative n accepted: %d", code)
	}
	if code, _ := get("?n=junk"); code != http.StatusBadRequest {
		t.Fatalf("junk n accepted: %d", code)
	}
}

func TestManifestCarriesEventsAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.Logger().Info("quarantine", "site", "lax")
	r.Histogram(`fenrir_serve_admission_seconds{tenant="x"}`).Observe(0.002)
	r.StartSpan("observe").End()
	var m Manifest
	m.FillFromRegistry(r)
	if len(m.Events) != 1 || m.Events[0].Msg != "quarantine" {
		t.Fatalf("manifest events = %+v", m.Events)
	}
	hs, ok := m.Histograms[`fenrir_serve_admission_seconds{tenant="x"}`]
	if !ok || hs.Count != 1 || hs.P50 <= 0 {
		t.Fatalf("manifest histograms = %+v", m.Histograms)
	}
	if st, ok := m.Histograms[`fenrir_stage_duration_seconds{stage="observe"}`]; !ok || st.Count != 1 {
		t.Fatalf("manifest stage histogram = %+v (ok=%v), want one observe run", st, ok)
	}
}

// Exercise the registry under -race: concurrent children, stage spans
// and their children, attrs, events, metric registration, a root
// replaced by BeginTrace, and concurrent exports and reads. Every span
// gets its own id.
func TestTraceAndFlightConcurrent(t *testing.T) {
	const workers, iters, retraces = 8, 50, 10
	r := NewRegistry()
	root := r.BeginTrace("run/race")
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := root.Child("tile")
				c.SetLane(k + 1)
				c.SetAttr("i", i)
				c.End()
				r.Logger().Info("tick", "worker", k, "i", i)
				st := r.StartSpan(fmt.Sprintf("stage%d", k%4))
				st.Child("step").End()
				st.End()
				r.Counter(fmt.Sprintf(`fenrir_race_total{worker="%d"}`, k)).Inc()
				r.Gauge(fmt.Sprintf(`fenrir_race_level{i="%d"}`, i)).Set(float64(i))
			}
		}(k)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < retraces; i++ {
			r.BeginTrace("run/again").End()
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			_ = r.WriteTrace(io.Discard)
			_ = r.Events(16)
			_ = r.Read()
			_ = r.TraceRoot()
		}
	}()
	wg.Wait()
	<-done
	root.End()

	// Each worker iteration ends a tile, a stage and its step; each
	// retrace ends one root; the first root ends last.
	recs := r.TraceRecords()
	want := workers*iters*3 + retraces + 1
	if len(recs) != want {
		t.Fatalf("trace records = %d, want %d", len(recs), want)
	}
	seen := make(map[int64]bool, len(recs))
	for _, rec := range recs {
		if rec.ID < 1 || rec.ID > int64(want) || seen[rec.ID] {
			t.Fatalf("span id %d repeated or outside 1..%d", rec.ID, want)
		}
		seen[rec.ID] = true
	}
	counters := r.Read().Counters
	for k := 0; k < workers; k++ {
		if got := counters[fmt.Sprintf(`fenrir_race_total{worker="%d"}`, k)]; got != iters {
			t.Fatalf("worker %d counter = %d, want %d", k, got, iters)
		}
	}
	if got := len(r.StageSummary()); got != 4 {
		t.Fatalf("stage rollups = %d, want 4", got)
	}
}
