package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fenrir/internal/faults"
	"fenrir/internal/obs"
)

// testServer starts a daemon behind an httptest server. Cleanup closes
// the listener, then drains the daemon so no tenant worker outlives the
// test: a periodic checkpoint must not write into a SnapshotDir that
// t.TempDir's cleanup is removing. Cleanups run last-in first-out, and
// the caller made any TempDir before calling here, so the drain runs
// before its removal. After the test's own Drain, this second one only
// re-checkpoints unchanged state. A failed test skips it: a hand-built
// tenant whose worker the test never started would block it.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			s.Drain() //nolint:errcheck // tests that care call Drain themselves
		}
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doReq(t *testing.T, ts *httptest.Server, method, path string, body any) (int, []byte) {
	t.Helper()
	code, out, err := tryReq(ts, method, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// tryReq is doReq for goroutines other than the test's own, which must
// not call t.Fatal: it returns the error instead.
func tryReq(ts *httptest.Server, method, path string, body any) (int, []byte, error) {
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case []byte:
		rd = bytes.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

func specNets(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("net-%03d", i)
	}
	return out
}

func defaultSpec(nets int) TenantSpec {
	return TenantSpec{
		Networks:        specNets(nets),
		Start:           time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		IntervalSeconds: 240,
		Epochs:          4096,
	}
}

// observation builds the JSON body for epoch e: site per network, with
// an era flip at flipAt and every 7th network pinned to "gamma".
func observation(nets []string, e, flipAt int) Observation {
	sites := make(map[string]string, len(nets))
	base := "alpha"
	if e >= flipAt {
		base = "beta"
	}
	for i, n := range nets {
		if i%11 == int(e)%11 { // a rotating hole so unknowns exist
			continue
		}
		if i%7 == 0 {
			sites[n] = "gamma"
			continue
		}
		sites[n] = base
	}
	return Observation{Epoch: int64(e), Sites: sites}
}

func mustIngest(t *testing.T, ts *httptest.Server, tenant string, nets []string, from, to, flipAt int) {
	t.Helper()
	for e := from; e < to; e++ {
		code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/"+tenant+"/observations", observation(nets, e, flipAt))
		if code != http.StatusAccepted {
			t.Fatalf("epoch %d: status %d: %s", e, code, body)
		}
	}
}

// waitHistory polls tenant status until the monitor has appended n
// observations (admission is synchronous, the append is not).
func waitHistory(t *testing.T, ts *httptest.Server, tenant string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := doReq(t, ts, http.MethodGet, "/v1/tenants/"+tenant, nil)
		var st struct {
			History int `json:"history"`
		}
		if json.Unmarshal(body, &st) == nil && st.History >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("tenant %q never reached history %d", tenant, n)
}

func TestServeIngestAndQuery(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Obs: reg})
	nets := specNets(90)

	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/anycast", defaultSpec(90)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	mustIngest(t, ts, "anycast", nets, 0, 40, 20)
	waitHistory(t, ts, "anycast", 40)

	code, body := doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/mode", nil)
	if code != http.StatusOK {
		t.Fatalf("mode: %d %s", code, body)
	}
	var mode struct {
		ModeID     int     `json:"mode_id"`
		Epochs     int     `json:"epochs"`
		Threshold  float64 `json:"threshold"`
		ModesTotal int     `json:"modes_total"`
	}
	if err := json.Unmarshal(body, &mode); err != nil {
		t.Fatal(err)
	}
	if mode.ModesTotal < 2 || mode.Epochs == 0 {
		t.Fatalf("era flip not reflected in modes: %+v", mode)
	}

	code, body = doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/events?n=5", nil)
	if code != http.StatusOK {
		t.Fatalf("events: %d %s", code, body)
	}
	var evs struct {
		Events []struct {
			At int64 `json:"at"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs.Events) != 1 || evs.Events[0].At != 20 {
		t.Fatalf("events = %s, want exactly the epoch-20 flip", body)
	}

	code, body = doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/heatmap?row=39", nil)
	if code != http.StatusOK {
		t.Fatalf("heatmap: %d %s", code, body)
	}
	var hm struct {
		Row int       `json:"row"`
		Phi []float64 `json:"phi"`
	}
	if err := json.Unmarshal(body, &hm); err != nil {
		t.Fatal(err)
	}
	if len(hm.Phi) != 40 || hm.Phi[39] != 1 {
		t.Fatalf("heatmap row malformed: %s", body)
	}
	// The latest row must be far from the pre-flip era and close to its
	// own era.
	if hm.Phi[0] >= hm.Phi[30] {
		t.Fatalf("phi[0]=%v not below phi[30]=%v after era flip", hm.Phi[0], hm.Phi[30])
	}

	code, body = doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/transitions?from=19&to=20", nil)
	if code != http.StatusOK {
		t.Fatalf("transitions: %d %s", code, body)
	}
	var tr struct {
		Moved      float64 `json:"moved"`
		Stayed     float64 `json:"stayed"`
		Unobserved float64 `json:"unobserved"`
		Total      float64 `json:"total"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Moved == 0 {
		t.Fatalf("flip transition shows no churn: %s", body)
	}
	if got := tr.Moved + tr.Stayed + tr.Unobserved; got != tr.Total {
		t.Fatalf("churn partition violated over HTTP: %v + %v + %v != %v", tr.Moved, tr.Stayed, tr.Unobserved, tr.Total)
	}

	code, body = doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/flows?from=19&to=20&k=3", nil)
	if code != http.StatusOK {
		t.Fatalf("flows: %d %s", code, body)
	}
	var fl struct {
		Flows []struct {
			From, To string
			Count    float64
		} `json:"flows"`
	}
	if err := json.Unmarshal(body, &fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Flows) == 0 || fl.Flows[0].From != "alpha" || fl.Flows[0].To != "beta" {
		t.Fatalf("largest flow should be the alpha→beta drain: %s", body)
	}

	if got := reg.Counter("fenrir_serve_ingest_total").Value(); got != 40 {
		t.Fatalf("ingest counter = %d, want 40", got)
	}
	if reg.Histogram(`fenrir_serve_query_seconds{endpoint="mode"}`).Count() == 0 {
		t.Fatal("mode query latency not recorded")
	}
}

func TestServeIngestErrors(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Obs: reg})
	nets := specNets(20)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/errs", defaultSpec(20)); code != http.StatusCreated {
		t.Fatal("create failed")
	}

	mustIngest(t, ts, "errs", nets, 0, 6, 100)
	waitHistory(t, ts, "errs", 6)

	// Out-of-order epoch: 400 with the typed error's message.
	code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/errs/observations", observation(nets, 3, 100))
	if code != http.StatusBadRequest || !strings.Contains(string(body), "out-of-order") {
		t.Fatalf("out-of-order: %d %s", code, body)
	}
	// Duplicate epoch: 400 mentioning duplicate.
	code, body = doReq(t, ts, http.MethodPost, "/v1/tenants/errs/observations", observation(nets, 5, 100))
	if code != http.StatusBadRequest || !strings.Contains(string(body), "duplicate") {
		t.Fatalf("duplicate: %d %s", code, body)
	}
	// Malformed JSON.
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/errs/observations", []byte("{not json")); code != http.StatusBadRequest {
		t.Fatalf("malformed json accepted: %d", code)
	}
	// Unknown network.
	bad := Observation{Epoch: 50, Sites: map[string]string{"who-dis": "alpha"}}
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/errs/observations", bad); code != http.StatusBadRequest {
		t.Fatalf("unknown network accepted: %d", code)
	}
	// Negative epoch.
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/errs/observations", Observation{Epoch: -1}); code != http.StatusBadRequest {
		t.Fatalf("negative epoch accepted: %d", code)
	}
	// Unknown tenant.
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/nobody/observations", observation(nets, 9, 100)); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d", code)
	}
	// Rejections must not have perturbed the stream.
	mustIngest(t, ts, "errs", nets, 6, 8, 100)
	waitHistory(t, ts, "errs", 8)

	if got := reg.Counter(`fenrir_serve_rejected_total{reason="order"}`).Value(); got != 1 {
		t.Fatalf("order rejections = %d, want 1", got)
	}
	if got := reg.Counter(`fenrir_serve_rejected_total{reason="duplicate"}`).Value(); got != 1 {
		t.Fatalf("duplicate rejections = %d, want 1", got)
	}
	if got := reg.Counter(`fenrir_serve_rejected_total{reason="malformed"}`).Value(); got != 3 {
		t.Fatalf("malformed rejections = %d, want 3", got)
	}
}

// A rejected observation changes no tenant state: duplicate,
// out-of-order and unknown-network 400s intern none of their sites, so
// the tenant's alphabet, and every later checkpoint, stays as it was.
func TestRejectedIngestLeavesAlphabet(t *testing.T) {
	s, ts := testServer(t, Config{})
	nets := specNets(20)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/abc", defaultSpec(20)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "abc", nets, 0, 4, 100)
	waitHistory(t, ts, "abc", 4)
	space := s.tenant("abc").mon.Space()
	before := space.NumSites()

	// Every rejected body labels each network with a site never seen.
	novel := func(epoch int64, extra string) Observation {
		sites := map[string]string{}
		for i, n := range nets {
			sites[n] = fmt.Sprintf("novel-%02d", i)
		}
		if extra != "" {
			sites[extra] = "novel-extra"
		}
		return Observation{Epoch: epoch, Sites: sites}
	}
	for _, c := range []struct {
		name string
		ob   Observation
	}{
		{"duplicate", novel(3, "")},
		{"out-of-order", novel(1, "")},
		{"unknown-network", novel(10, "who-dis")},
	} {
		if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/abc/observations", c.ob); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", c.name, code, body)
		}
		if got := space.NumSites(); got != before {
			t.Fatalf("%s 400 took the alphabet from %d to %d sites", c.name, before, got)
		}
	}
	// An accepted observation still interns its sites.
	if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/abc/observations", novel(4, "")); code != http.StatusAccepted {
		t.Fatalf("accepted: status %d: %s", code, body)
	}
	waitHistory(t, ts, "abc", 5)
	if got, want := space.NumSites(), before+len(nets); got != want {
		t.Fatalf("after an accepted observation: %d sites, want %d", got, want)
	}
}

// TestModeReadDuringIngest is the regression test for GET /mode
// answering 404 while a growing tenant ingests: the handler took the
// newest row from a second Len() after LiveModes returned, so an append
// landing between the two asked an N-row result for row N ("latest
// observation is in no mode"). Four readers per unbounded tenant
// interleave /mode with its appends, and every read must answer 200. On
// a 2-core host the old handler failed 5 to 15 of about 2,500 reads in
// every run of this shape; with one reader per tenant it rarely failed
// any.
func TestModeReadDuringIngest(t *testing.T) {
	_, ts := testServer(t, Config{})
	const tenants, epochs, readers = 2, 400, 4
	nets := specNets(16)
	var wg sync.WaitGroup
	var reads, missing atomic.Int64
	for k := 0; k < tenants; k++ {
		name := fmt.Sprintf("grow-%d", k)
		if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/"+name, defaultSpec(16)); code != http.StatusCreated {
			t.Fatal("create failed")
		}
		mustIngest(t, ts, name, nets, 0, 1, epochs/2)
		waitHistory(t, ts, name, 1)
		done := make(chan struct{})
		wg.Add(1 + readers)
		go func() {
			defer wg.Done()
			defer close(done)
			for e := 1; e < epochs; e++ {
				code, body, err := tryReq(ts, http.MethodPost, "/v1/tenants/"+name+"/observations", observation(nets, e, epochs/2))
				if err != nil || code != http.StatusAccepted {
					t.Errorf("%s epoch %d: %d %s %v", name, e, code, body, err)
					return
				}
			}
		}()
		for r := 0; r < readers; r++ {
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					code, body, err := tryReq(ts, http.MethodGet, "/v1/tenants/"+name+"/mode", nil)
					if err != nil {
						t.Error(err)
						return
					}
					reads.Add(1)
					switch code {
					case http.StatusOK:
					case http.StatusNotFound:
						missing.Add(1)
					default:
						t.Errorf("%s /mode: %d %s", name, code, body)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if n := missing.Load(); n > 0 {
		t.Fatalf("%d of %d /mode reads answered 404 while their tenant ingested", n, reads.Load())
	}
}

// One traced /mode rebuild records one recluster span and no
// per-threshold sweep span, so a daemon's trace ring keeps requests,
// not a hundred sweep steps per re-cluster.
func TestTracedModeRebuildIsOneSpan(t *testing.T) {
	reg := obs.NewRegistry()
	reg.BeginTrace("serve-test")
	_, ts := testServer(t, Config{Obs: reg})
	nets := specNets(12)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/m", defaultSpec(12)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "m", nets, 0, 16, 8)
	waitHistory(t, ts, "m", 16)
	spans := func(name string) (n int, last obs.TraceRecord) {
		for _, rec := range reg.TraceRecords() {
			if rec.Name == name {
				n, last = n+1, rec
			}
		}
		return n, last
	}
	reclusters, _ := spans("recluster")
	sweeps, _ := spans("sweep")
	if code, body := doReq(t, ts, http.MethodGet, "/v1/tenants/m/mode", nil); code != http.StatusOK {
		t.Fatalf("mode: %d %s", code, body)
	}
	gotReclusters, rec := spans("recluster")
	gotSweeps, _ := spans("sweep")
	if gotReclusters != reclusters+1 || gotSweeps != sweeps {
		t.Fatalf("one /mode rebuild added %d recluster and %d sweep spans, want 1 and 0",
			gotReclusters-reclusters, gotSweeps-sweeps)
	}
	attrs := map[string]string{}
	for _, a := range rec.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["path"] != "rebuild" || attrs["threshold"] == "" || attrs["clusters"] == "" {
		t.Fatalf("recluster span attrs = %+v, want path=rebuild, threshold and clusters", rec.Attrs)
	}
}

// Every per-event metric handle is resolved up front, so its series
// exists at 0 before the first event: the reject counters from New, a
// tenant monitor's verdict counters from its Instrument.
func TestServeMetricsExistFromStartup(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Obs: reg})
	counters := func() map[string]int64 { return reg.Read().Counters }
	want := []string{"fenrir_serve_ingest_rejected_total"}
	for _, reason := range []string{"append", "draining", "read", "dropped", "malformed", "backpressure", "duplicate", "order"} {
		want = append(want, fmt.Sprintf("fenrir_serve_rejected_total{reason=%q}", reason))
	}
	got := counters()
	for _, name := range want {
		if v, ok := got[name]; !ok || v != 0 {
			t.Errorf("after New: %s = %d (present %v), want 0", name, v, ok)
		}
	}
	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/fresh", defaultSpec(4)); code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	got = counters()
	for _, name := range []string{"fenrir_detect_recurrence_total", "fenrir_detect_novel_total"} {
		if v, ok := got[name]; !ok || v != 0 {
			t.Errorf("after tenant creation: %s = %d (present %v), want 0", name, v, ok)
		}
	}
}

func TestServeTenantAdmin(t *testing.T) {
	_, ts := testServer(t, Config{})
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/bad*name", defaultSpec(4)); code != http.StatusBadRequest {
		t.Fatalf("unsafe tenant name accepted: %d", code)
	}
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", TenantSpec{}); code != http.StatusBadRequest {
		t.Fatalf("empty spec accepted: %d", code)
	}
	spec := defaultSpec(4)
	spec.Networks[3] = spec.Networks[0] // used to panic the handler
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", spec); code != http.StatusBadRequest {
		t.Fatalf("duplicate network accepted: %d", code)
	}
	spec = defaultSpec(4)
	spec.Weights = []float64{1, 2} // wrong length
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", spec); code != http.StatusBadRequest {
		t.Fatalf("mismatched weights accepted: %d", code)
	}
	spec = defaultSpec(4)
	spec.Weights = []float64{1, -1, 1, 1}
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", spec); code != http.StatusBadRequest {
		t.Fatalf("negative weight accepted: %d", code)
	}
	spec = defaultSpec(3)
	spec.Weights = []float64{1e308, 1e308, 1e308} // sums to +Inf: every Φ would be NaN or 0
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", spec); code != http.StatusBadRequest {
		t.Fatalf("overflowing weights accepted: %d", code)
	}
	spec = defaultSpec(4)
	spec.UnknownMode = "optimistic"
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", spec); code != http.StatusBadRequest {
		t.Fatalf("bad unknown_mode accepted: %d", code)
	}
	spec = defaultSpec(4)
	spec.IntervalSeconds = 9_700_000_000 // wraps time.Duration negative; used to panic the handler
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", spec); code != http.StatusBadRequest {
		t.Fatalf("overflowing interval_seconds accepted: %d", code)
	}
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", defaultSpec(4)); code != http.StatusCreated {
		t.Fatal("valid spec rejected")
	}
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/ok", defaultSpec(4)); code != http.StatusConflict {
		t.Fatal("duplicate tenant accepted")
	}
	code, body := doReq(t, ts, http.MethodGet, "/v1/tenants", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("list: %d %s", code, body)
	}
}

// TestServeDetectModeSpec pins the detect.mode wire field: empty
// inherits the tenant's unknown_mode, an explicit value decouples the
// detector's unknown handling from the similarity mode, and an invalid
// value is a 400 at tenant creation.
func TestServeDetectModeSpec(t *testing.T) {
	spec := defaultSpec(6)
	spec.UnknownMode = "known-only"
	mon, err := monitorFromSpec(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Detect().Mode; got != mon.Mode() {
		t.Fatalf("empty detect.mode: detector mode %v != tenant mode %v", got, mon.Mode())
	}

	spec.Detect = &DetectSpec{Mode: "pessimistic", Window: 5}
	mon, err = monitorFromSpec(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Mode().String() != "known-only" || mon.Detect().Mode.String() != "pessimistic" {
		t.Fatalf("decoupled modes: tenant %v, detector %v", mon.Mode(), mon.Detect().Mode)
	}
	if mon.Detect().Window != 5 {
		t.Fatalf("detect window = %d, want 5", mon.Detect().Window)
	}

	_, ts := testServer(t, Config{})
	bad := defaultSpec(6)
	bad.Detect = &DetectSpec{Mode: "optimistic"}
	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/dm", bad); code != http.StatusBadRequest {
		t.Fatalf("bad detect.mode accepted: %d %s", code, body)
	}
	good := defaultSpec(6)
	good.UnknownMode = "known-only"
	good.Detect = &DetectSpec{Mode: "pessimistic"}
	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/dm", good); code != http.StatusCreated {
		t.Fatalf("valid detect.mode rejected: %d %s", code, body)
	}
	mustIngest(t, ts, "dm", specNets(6), 0, 10, 5)
	waitHistory(t, ts, "dm", 10)
}

// TestServeHugeDetectWindow: detect.window is client input, so a tenant
// asking for a 2^40-pair baseline window is created without anything
// sized by it (the window only ever holds the pairs that arrive), and
// then ingests normally.
func TestServeHugeDetectWindow(t *testing.T) {
	_, ts := testServer(t, Config{})
	spec := defaultSpec(6)
	spec.Detect = &DetectSpec{Window: 1 << 40}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/huge", spec)
	runtime.ReadMemStats(&after)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("creating the tenant allocated %d bytes", grew)
	}
	mustIngest(t, ts, "huge", specNets(6), 0, 10, 5)
	waitHistory(t, ts, "huge", 10)
}

// Backpressure: when the queue is full the daemon answers 429 +
// Retry-After instead of blocking the producer or buffering without
// bound. The worker is deliberately not running so the queue state is
// deterministic.
func TestServeBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{QueueDepth: 2, Obs: reg})
	nets := specNets(10)
	mon, err := monitorFromSpec(defaultSpec(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A tenant with no worker: admitted observations stay queued.
	tn := &tenant{name: "slow", srv: s, mon: mon, queue: make(chan queued, 2), done: make(chan struct{})}
	tn.cond = sync.NewCond(&tn.mu)
	s.addTenant(tn)

	for e := 0; e < 2; e++ {
		if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/slow/observations", observation(nets, e, 99)); code != http.StatusAccepted {
			t.Fatalf("epoch %d: %d %s", e, code, body)
		}
	}
	// Both queued observations count in the daemon-wide backlog.
	_, body := doReq(t, ts, http.MethodGet, "/status", nil)
	var status struct {
		Pending int64 `json:"pending"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("fenrir_serve_pending").Value(); status.Pending != 2 || got != 2 {
		t.Fatalf("pending: /status %d, gauge %v, want 2", status.Pending, got)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/tenants/slow/observations", bytes.NewReader(mustJSON(t, observation(nets, 2, 99))))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := reg.Counter(`fenrir_serve_rejected_total{reason="backpressure"}`).Value(); got != 1 {
		t.Fatalf("backpressure rejections = %d, want 1", got)
	}
	// Epoch 2 was rejected, not accepted: the producer may retry it.
	go tn.worker()
	tn.flush()
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/slow/observations", observation(nets, 2, 99)); code != http.StatusAccepted {
		t.Fatal("retry after backpressure rejected")
	}
	waitHistory(t, ts, "slow", 3)
}

// addTenant puts a hand-built tenant in s's table, as insert would
// without starting its worker.
func (s *Server) addTenant(tn *tenant) {
	s.mu.Lock()
	s.tenants[tn.name] = tn
	s.mu.Unlock()
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// deterministicQueries captures the query endpoints whose responses
// depend only on ingested history — the byte-identity surface for
// kill-and-restore.
func deterministicQueries(t *testing.T, ts *httptest.Server, tenant string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, path := range []string{
		"/v1/tenants/" + tenant + "/mode",
		"/v1/tenants/" + tenant + "/events?n=50",
		"/v1/tenants/" + tenant + "/heatmap",
		"/v1/tenants/" + tenant + "/transitions",
		"/v1/tenants/" + tenant + "/flows?k=5",
	} {
		code, body := doReq(t, ts, http.MethodGet, path, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, body)
		}
		out[path] = string(body)
	}
	return out
}

// Kill-and-restore: a daemon that checkpoints, dies, and restarts from
// its snapshot directory must answer every deterministic query with the
// exact bytes an uninterrupted daemon produces.
func TestServeRestartByteIdentical(t *testing.T) {
	nets := specNets(60)

	// Control: one daemon ingests all 48 observations, never restarting.
	_, control := testServer(t, Config{})
	if code, _ := doReq(t, control, http.MethodPut, "/v1/tenants/bgp", defaultSpec(60)); code != http.StatusCreated {
		t.Fatal("control create failed")
	}
	mustIngest(t, control, "bgp", nets, 0, 48, 24)
	waitHistory(t, control, "bgp", 48)
	want := deterministicQueries(t, control, "bgp")

	// Victim: ingests 30, checkpoints, "dies" (Drain + server gone).
	dir := t.TempDir()
	s1, ts1 := testServer(t, Config{SnapshotDir: dir, SnapshotEvery: 7})
	if code, _ := doReq(t, ts1, http.MethodPut, "/v1/tenants/bgp", defaultSpec(60)); code != http.StatusCreated {
		t.Fatal("victim create failed")
	}
	mustIngest(t, ts1, "bgp", nets, 0, 30, 24)
	if code, body := doReq(t, ts1, http.MethodPost, "/v1/tenants/bgp/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	if err := s1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	// Successor: warm restart from the snapshot dir, ingest the rest.
	_, ts2 := testServer(t, Config{SnapshotDir: dir})
	code, body := doReq(t, ts2, http.MethodGet, "/v1/tenants/bgp", nil)
	if code != http.StatusOK {
		t.Fatalf("restored tenant missing: %d %s", code, body)
	}
	var st struct {
		History      int   `json:"history"`
		LastAccepted int64 `json:"last_accepted"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.History != 30 || st.LastAccepted != 29 {
		t.Fatalf("restored state = %+v, want history 30 through epoch 29", st)
	}
	// The restored daemon enforces ordering against the restored history.
	if code, _ = doReq(t, ts2, http.MethodPost, "/v1/tenants/bgp/observations", observation(nets, 29, 24)); code != http.StatusBadRequest {
		t.Fatalf("restored daemon accepted a replay: %d", code)
	}
	mustIngest(t, ts2, "bgp", nets, 30, 48, 24)
	waitHistory(t, ts2, "bgp", 48)

	got := deterministicQueries(t, ts2, "bgp")
	for path, wantBody := range want {
		if got[path] != wantBody {
			t.Errorf("%s diverged after restart:\nuninterrupted: %s\nrestored:      %s", path, wantBody, got[path])
		}
	}
}

// Concurrent ingest and query against a live daemon; run under -race.
// Writers pass an epoch token through a channel so admission always sees
// increasing epochs, while readers hammer every query endpoint.
func TestServeConcurrentIngestAndQuery(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Obs: reg, SnapshotDir: t.TempDir(), SnapshotEvery: 16})
	nets := specNets(40)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/live", defaultSpec(40)); code != http.StatusCreated {
		t.Fatal("create failed")
	}

	const total = 96
	const writers = 4
	next := make(chan int, 1)
	next <- 0
	var wg sync.WaitGroup
	for k := 0; k < writers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e := <-next
				if e >= total {
					next <- e
					return
				}
				code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/live/observations", observation(nets, e, total/2))
				if code != http.StatusAccepted {
					t.Errorf("epoch %d: %d %s", e, code, body)
					next <- total
					return
				}
				next <- e + 1
			}
		}()
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, path := range []string{
		"/v1/tenants/live", "/v1/tenants/live/mode", "/v1/tenants/live/events",
		"/v1/tenants/live/heatmap", "/v1/tenants/live/flows", "/v1/tenants", "/metrics", "/healthz",
	} {
		readers.Add(1)
		go func(p string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := doReq(t, ts, http.MethodGet, p, nil)
				// Mode/heatmap/flows 404 before observations arrive and
				// flows 400s with <2 observations; anything else is a bug.
				if code >= 500 {
					t.Errorf("%s: %d under concurrent ingest", p, code)
					return
				}
			}
		}(path)
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	waitHistory(t, ts, "live", total)
	if got := reg.Counter("fenrir_serve_ingest_total").Value(); got != total {
		t.Fatalf("ingest counter = %d, want %d", got, total)
	}
	if reg.Counter("fenrir_snapshot_writes_total").Value() == 0 {
		t.Fatal("periodic checkpoints never fired")
	}
}

// The ingest fault seam: with a seeded injector the daemon degrades —
// drops become 503s, corrupted bodies become quarantined 400s — but
// never crashes and never lets a mangled observation corrupt the epoch
// stream.
func TestServeIngestThroughFaults(t *testing.T) {
	prof, ok := faults.ByName("heavy")
	if !ok {
		t.Fatal("heavy profile missing")
	}
	reg := obs.NewRegistry()
	inj := faults.New(prof, 13, reg)
	_, ts := testServer(t, Config{Obs: reg, Faults: inj})
	nets := specNets(30)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/rough", defaultSpec(30)); code != http.StatusCreated {
		t.Fatal("create failed")
	}

	var accepted, rejected int
	e := 0
	for accepted < 40 && e < 10000 {
		code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/rough/observations", observation(nets, e, 20))
		switch {
		case code == http.StatusAccepted:
			accepted++
			e++
		case code == http.StatusServiceUnavailable || code == http.StatusBadRequest:
			rejected++
			e++ // move on: this epoch is lost to the outage
		default:
			t.Fatalf("epoch %d: unexpected status %d", e, code)
		}
	}
	if accepted < 40 {
		t.Fatalf("only %d accepted after %d attempts", accepted, e)
	}
	if rejected == 0 {
		t.Fatal("heavy faults injected nothing — seam not exercised")
	}
	waitHistory(t, ts, "rough", 40)
	if code, _ := doReq(t, ts, http.MethodGet, "/v1/tenants/rough/mode", nil); code != http.StatusOK {
		t.Fatal("daemon unhealthy after faulty ingest")
	}
	rep := inj.Report()
	if rep.TotalInjected() == 0 {
		t.Fatal("injector reports no injected faults")
	}
}

// TestFaultedIngestDeterministic pins a faulted daemon to its fault
// seed: two daemons on the same profile and seed, fed the same
// observations one at a time, must answer every post alike and retain
// the same vectors. The injector's site-label draws and its stuck-site
// memory follow the order it labels an observation's cells in, which
// was the random order of ranging over the decoded map.
func TestFaultedIngestDeterministic(t *testing.T) {
	prof, ok := faults.ByName("corrupt")
	if !ok {
		t.Fatal("corrupt profile missing")
	}
	nets := specNets(60)
	run := func() (codes []int, rows []string) {
		reg := obs.NewRegistry()
		s, ts := testServer(t, Config{Obs: reg, Faults: faults.New(prof, 7, reg)})
		if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/f", defaultSpec(60)); code != http.StatusCreated {
			t.Fatal("create failed")
		}
		accepted := 0
		for e := 0; e < 80; e++ {
			code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/f/observations", observation(nets, e, 40))
			codes = append(codes, code)
			if code == http.StatusAccepted {
				accepted++
			}
		}
		waitHistory(t, ts, "f", accepted)
		for _, v := range s.tenant("f").mon.Series().Vectors {
			row := fmt.Sprint(v.T)
			for n := range nets {
				site, _ := v.Site(n)
				row += " " + site
			}
			rows = append(rows, row)
		}
		return codes, rows
	}
	codesA, a := run()
	codesB, b := run()
	if fmt.Sprint(codesA) != fmt.Sprint(codesB) {
		t.Fatalf("statuses differ:\n%v\n%v", codesA, codesB)
	}
	if len(a) != len(b) {
		t.Fatalf("retained %d vectors, then %d", len(a), len(b))
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%d of %d retained vectors differ between two runs of one fault seed", diff, len(a))
	}
}

// TestIngestSiteAlphabetDeterministic pins an unfaulted daemon's site
// alphabet to its feed: admission interns an observation's new sites in
// the order of its cells, which was the random order of ranging over the
// decoded map, so daemons fed one observation wrote different alphabets
// and assignment frames into their checkpoints. The cells now go in
// network order, so the alphabet lists the sites by first network.
func TestIngestSiteAlphabetDeterministic(t *testing.T) {
	nets := specNets(24)
	ob := Observation{Sites: make(map[string]string, len(nets))}
	want := make([]string, len(nets))
	for i, n := range nets {
		want[i] = fmt.Sprintf("site-%02d", (7*i)%len(nets))
		ob.Sites[n] = want[i]
	}
	for run := 0; run < 4; run++ {
		s, ts := testServer(t, Config{})
		if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/a", defaultSpec(len(nets))); code != http.StatusCreated {
			t.Fatal("create failed")
		}
		if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/a/observations", ob); code != http.StatusAccepted {
			t.Fatalf("ingest: %d %s", code, body)
		}
		waitHistory(t, ts, "a", 1)
		if got := s.tenant("a").mon.Space().Sites(); !slices.Equal(got, want) {
			t.Fatalf("run %d interned %v, want network order %v", run, got, want)
		}
	}
}

func TestServeDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{SnapshotDir: dir})
	nets := specNets(10)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/d", defaultSpec(10)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "d", nets, 0, 5, 99)
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Ingest now refuses; queries still answer.
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/d/observations", observation(nets, 5, 99)); code != http.StatusServiceUnavailable {
		t.Fatal("draining daemon accepted an observation")
	}
	if code, _ := doReq(t, ts, http.MethodGet, "/v1/tenants/d/heatmap", nil); code != http.StatusOK {
		t.Fatal("draining daemon refused a query")
	}
	// /status reports the drain, its wall time and the empty backlog.
	_, body := doReq(t, ts, http.MethodGet, "/status", nil)
	var status struct {
		Draining     bool    `json:"draining"`
		DrainSeconds float64 `json:"drain_seconds"`
		Pending      *int64  `json:"pending"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if !status.Draining || status.DrainSeconds <= 0 || status.Pending == nil || *status.Pending != 0 {
		t.Fatalf("/status after drain: %s", body)
	}
	// An explicit checkpoint refuses too: the drain wrote each tenant's
	// final checkpoint.
	path := s.tenant("d").snapshotPath()
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/d/checkpoint", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint after drain: %d %s, want 503", code, body)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, final) {
		t.Fatalf("checkpoint after drain rewrote the final checkpoint (%v)", err)
	}
	// The drain checkpoint covers all five accepted observations.
	_, ts2 := testServer(t, Config{SnapshotDir: dir})
	code, body := doReq(t, ts2, http.MethodGet, "/v1/tenants/d", nil)
	var st struct {
		History int `json:"history"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil || st.History != 5 {
		t.Fatalf("drain checkpoint incomplete: %d %s", code, body)
	}
}

// TestServeExplainAndServerStatus covers the provenance surface: events
// with ?explain=1 carry full explanations whose headline flow names the
// drained site, the per-event explain endpoint serves the same payload,
// missing epochs 404, the recurrence/novel counters are fed, and the
// daemon-level GET /status reports the runtime health block.
func TestServeExplainAndServerStatus(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{Obs: reg})
	nets := specNets(90)
	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/anycast", defaultSpec(90)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	mustIngest(t, ts, "anycast", nets, 0, 40, 20)
	waitHistory(t, ts, "anycast", 40)

	type explanation struct {
		Verdict  string `json:"verdict"`
		TopFlows []struct {
			From  string  `json:"from"`
			To    string  `json:"to"`
			Count float64 `json:"count"`
		} `json:"top_flows"`
		Contributors []struct {
			Network string `json:"network"`
		} `json:"contributors"`
		Moved      float64 `json:"moved"`
		Stayed     float64 `json:"stayed"`
		Unobserved float64 `json:"unobserved"`
		Total      float64 `json:"total"`
		ModeCount  int     `json:"mode_count"`
	}
	code, body := doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/events?explain=1", nil)
	if code != http.StatusOK {
		t.Fatalf("events?explain=1: %d %s", code, body)
	}
	var evs struct {
		Events []struct {
			At          int64        `json:"at"`
			Explanation *explanation `json:"explanation"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs.Events) != 1 || evs.Events[0].At != 20 {
		t.Fatalf("events = %s, want exactly the epoch-20 flip", body)
	}
	ex := evs.Events[0].Explanation
	if ex == nil {
		t.Fatalf("explain=1 event carries no explanation: %s", body)
	}
	if ex.Verdict == "" || len(ex.Contributors) == 0 {
		t.Fatalf("explanation incomplete: %+v", ex)
	}
	if len(ex.TopFlows) == 0 || ex.TopFlows[0].From != "alpha" || ex.TopFlows[0].To != "beta" {
		t.Fatalf("top flow should be the alpha→beta drain: %+v", ex.TopFlows)
	}
	if got := ex.Moved + ex.Stayed + ex.Unobserved; got != ex.Total {
		t.Fatalf("mass partition violated over HTTP: %v + %v + %v != %v", ex.Moved, ex.Stayed, ex.Unobserved, ex.Total)
	}

	code, body = doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/events/20/explain", nil)
	if code != http.StatusOK {
		t.Fatalf("event explain: %d %s", code, body)
	}
	var one struct {
		At          int64        `json:"at"`
		Explanation *explanation `json:"explanation"`
	}
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.Explanation == nil || one.Explanation.Verdict != ex.Verdict || len(one.Explanation.TopFlows) != len(ex.TopFlows) {
		t.Fatalf("per-event explain diverges from events?explain=1: %s", body)
	}
	if code, _ := doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/events/7/explain", nil); code != http.StatusNotFound {
		t.Fatalf("explain at quiet epoch: %d, want 404", code)
	}
	if code, _ := doReq(t, ts, http.MethodGet, "/v1/tenants/anycast/events/x/explain", nil); code != http.StatusBadRequest {
		t.Fatalf("explain at non-integer epoch: %d, want 400", code)
	}

	if got := reg.Counter("fenrir_detect_recurrence_total").Value() + reg.Counter("fenrir_detect_novel_total").Value(); got == 0 {
		t.Fatal("detection verdict counters not fed by streaming ingest")
	}

	code, body = doReq(t, ts, http.MethodGet, "/status", nil)
	if code != http.StatusOK {
		t.Fatalf("server status: %d %s", code, body)
	}
	var st struct {
		Tenants int  `json:"tenants"`
		History int  `json:"history"`
		Drain   bool `json:"draining"`
		Runtime struct {
			Goroutines int     `json:"goroutines"`
			HeapBytes  uint64  `json:"heap_bytes"`
			GCPauseP99 float64 `json:"gc_pause_p99_seconds"`
		} `json:"runtime"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Tenants != 1 || st.History != 40 {
		t.Fatalf("fleet rollup wrong: %s", body)
	}
	if st.Runtime.Goroutines < 1 || st.Runtime.HeapBytes == 0 {
		t.Fatalf("runtime health block empty: %s", body)
	}
	if st.Runtime.GCPauseP99 < 0 {
		t.Fatalf("negative GC pause quantile: %s", body)
	}
}

// waitAppends polls tenant status until the monitor has accepted n
// appends. waitHistory cannot serve here: a windowed tenant's history
// plateaus at the window bound while appends keep counting.
func waitAppends(t *testing.T, ts *httptest.Server, tenant string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := doReq(t, ts, http.MethodGet, "/v1/tenants/"+tenant, nil)
		var st struct {
			Appends uint64 `json:"appends"`
		}
		if json.Unmarshal(body, &st) == nil && st.Appends >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("tenant %q never reached %d appends", tenant, n)
}

// Windowed tenants through the API: the server default applies when the
// spec is silent, an explicit spec window overrides it, history plateaus
// at the bound with evictions counted, /mode answers exactly as a fresh
// tenant fed only the retained suffix, and a warm restart preserves all
// of it.
func TestServeWindowedTenant(t *testing.T) {
	const W = 16
	nets := specNets(40)
	dir := t.TempDir()
	s1, ts1 := testServer(t, Config{SnapshotDir: dir, DefaultWindow: W})

	// "edge" inherits the server-wide default window.
	if code, body := doReq(t, ts1, http.MethodPut, "/v1/tenants/edge", defaultSpec(40)); code != http.StatusCreated {
		t.Fatalf("create edge: %d %s", code, body)
	}
	// "pinned" overrides it per spec.
	pinned := defaultSpec(40)
	pinned.Window = 8
	if code, body := doReq(t, ts1, http.MethodPut, "/v1/tenants/pinned", pinned); code != http.StatusCreated {
		t.Fatalf("create pinned: %d %s", code, body)
	}
	_, body := doReq(t, ts1, http.MethodGet, "/v1/tenants/pinned", nil)
	var pst struct {
		Window int `json:"window"`
	}
	if err := json.Unmarshal(body, &pst); err != nil {
		t.Fatal(err)
	}
	if pst.Window != 8 {
		t.Fatalf("pinned window = %d, want spec override 8", pst.Window)
	}

	mustIngest(t, ts1, "edge", nets, 0, 40, 20)
	waitAppends(t, ts1, "edge", 40)

	_, body = doReq(t, ts1, http.MethodGet, "/v1/tenants/edge", nil)
	var st struct {
		History   int    `json:"history"`
		Appends   uint64 `json:"appends"`
		Window    int    `json:"window"`
		Evictions uint64 `json:"evictions"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Window != W || st.History != W {
		t.Fatalf("status = %+v, want window and history %d", st, W)
	}
	if st.Evictions != 40-W {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 40-W)
	}

	// /mode from the windowed tenant must equal /mode from an unbounded
	// tenant that only ever saw the retained suffix.
	code, modeBody := doReq(t, ts1, http.MethodGet, "/v1/tenants/edge/mode", nil)
	if code != http.StatusOK {
		t.Fatalf("mode: %d %s", code, modeBody)
	}
	_, fresh := testServer(t, Config{})
	if code, _ := doReq(t, fresh, http.MethodPut, "/v1/tenants/edge", defaultSpec(40)); code != http.StatusCreated {
		t.Fatal("fresh create failed")
	}
	mustIngest(t, fresh, "edge", nets, 40-W, 40, 20)
	waitHistory(t, fresh, "edge", W)
	if _, want := doReq(t, fresh, http.MethodGet, "/v1/tenants/edge/mode", nil); string(modeBody) != string(want) {
		t.Fatalf("windowed /mode diverged from fresh-suffix tenant:\nwindowed: %s\nfresh:    %s", modeBody, want)
	}

	// Kill and warm-restart: bound, eviction count, and history survive,
	// and the restored tenant keeps evicting as ingest continues.
	if code, body := doReq(t, ts1, http.MethodPost, "/v1/tenants/edge/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	_, ts2 := testServer(t, Config{SnapshotDir: dir})
	_, body = doReq(t, ts2, http.MethodGet, "/v1/tenants/edge", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Window != W || st.History != W || st.Evictions != 40-W {
		t.Fatalf("restored status = %+v, want window/history %d with %d evictions", st, W, 40-W)
	}
	mustIngest(t, ts2, "edge", nets, 40, 48, 20)
	waitAppends(t, ts2, "edge", 48)
	_, body = doReq(t, ts2, http.MethodGet, "/v1/tenants/edge", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.History != W || st.Evictions != 48-W {
		t.Fatalf("post-restart status = %+v, want history %d with %d evictions", st, W, 48-W)
	}
	if code, body := doReq(t, ts2, http.MethodGet, "/v1/tenants/edge/mode", nil); code != http.StatusOK {
		t.Fatalf("restored mode: %d %s", code, body)
	}
}

// TestNoSharedMonitorHistoryGauge: every tenant's monitor reports into
// the daemon's one registry, so an unlabeled history gauge would hold
// whichever tenant appended last. History is per-tenant state and is
// served as "history" in each tenant's status instead. The same goes
// for the live mode sweep: a /mode read must not leave its tenant's
// threshold and cluster count in the unlabeled batch cluster gauges.
func TestNoSharedMonitorHistoryGauge(t *testing.T) {
	_, ts := testServer(t, Config{Obs: obs.NewRegistry()})
	nets := specNets(20)
	for name, n := range map[string]int{"short": 6, "long": 14} {
		if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/"+name, defaultSpec(20)); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, code, body)
		}
		mustIngest(t, ts, name, nets, 0, n, n/2)
		waitHistory(t, ts, name, n)
		if code, body := doReq(t, ts, http.MethodGet, "/v1/tenants/"+name+"/mode", nil); code != http.StatusOK {
			t.Fatalf("mode %s: %d %s", name, code, body)
		}
	}
	code, body := doReq(t, ts, http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			switch f[0] {
			case "fenrir_monitor_history", "fenrir_cluster_threshold", "fenrir_cluster_count":
				t.Fatalf("/metrics carries an unlabeled per-tenant gauge: %q", line)
			}
		}
	}
}
