package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"fenrir/internal/obs"
	"fenrir/internal/obs/history"
)

// TestHistoryEndpoints exercises the self-observation surface end to
// end: ingest through the API, tick the sampler synchronously, and read
// the rings back via /v1/query, /v1/alerts, /debug/timeline, and the
// /status alerts block.
func TestHistoryEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	// An hour-long interval keeps the background ticker quiet; the test
	// drives sampling deterministically through Tick.
	s, ts := testServer(t, Config{Obs: reg, HistoryEvery: time.Hour})
	defer s.Drain()

	nets := specNets(8)
	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/alpha", defaultSpec(8)); code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	s.History().Tick() // baseline sample before any ingest
	mustIngest(t, ts, "alpha", nets, 0, 5, 1000)
	waitHistory(t, ts, "alpha", 5)
	s.History().Tick()

	code, body := doReq(t, ts, http.MethodGet, "/v1/query?metric=fenrir_serve_ingest_total&fn=delta", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/query: %d: %s", code, body)
	}
	var q struct {
		Value   float64 `json:"value"`
		Samples int     `json:"samples"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Value != 5 || q.Samples != 2 {
		t.Fatalf("delta(fenrir_serve_ingest_total) = %v over %d samples, want 5 over 2", q.Value, q.Samples)
	}

	code, body = doReq(t, ts, http.MethodGet, "/v1/query?metric=unknown_metric", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown series: %d: %s", code, body)
	}

	code, body = doReq(t, ts, http.MethodGet, "/v1/alerts", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/alerts: %d: %s", code, body)
	}
	var al struct {
		Firing int                   `json:"firing"`
		Alerts []history.AlertStatus `json:"alerts"`
	}
	if err := json.Unmarshal(body, &al); err != nil {
		t.Fatal(err)
	}
	if len(al.Alerts) != len(DefaultAlertRules()) {
		t.Fatalf("%d alert rules, want the %d defaults", len(al.Alerts), len(DefaultAlertRules()))
	}
	if al.Firing != 0 {
		t.Fatalf("%d rules firing on a healthy daemon: %s", al.Firing, body)
	}

	code, body = doReq(t, ts, http.MethodGet, "/debug/timeline", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/timeline: %d: %s", code, body)
	}
	var tl struct {
		Ticks  uint64                      `json:"ticks"`
		Series map[string]history.Timeline `json:"series"`
	}
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.Ticks != 2 {
		t.Fatalf("timeline ticks = %d, want 2", tl.Ticks)
	}
	if _, ok := tl.Series["fenrir_serve_ingest_total"]; !ok {
		t.Fatalf("timeline missing fenrir_serve_ingest_total (have %d series)", len(tl.Series))
	}
	// Histogram rollups ride as derived |stat series.
	if _, ok := tl.Series["fenrir_serve_admission_seconds|p99"]; !ok {
		t.Fatal("timeline missing the admission rollup's p99")
	}

	code, body = doReq(t, ts, http.MethodGet, "/status", nil)
	if code != http.StatusOK {
		t.Fatalf("/status: %d: %s", code, body)
	}
	var st struct {
		Alerts *struct {
			Rules   int      `json:"rules"`
			Firing  []string `json:"firing"`
			Samples uint64   `json:"samples"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Alerts == nil || st.Alerts.Rules != len(DefaultAlertRules()) || len(st.Alerts.Firing) != 0 {
		t.Fatalf("/status alerts block = %+v, want %d quiet rules", st.Alerts, len(DefaultAlertRules()))
	}
}

// TestHistoryDisabledSurface pins the no-history contract: routes exist,
// queries miss, the alert list is empty, and /status carries no alerts
// block.
func TestHistoryDisabledSurface(t *testing.T) {
	_, ts := testServer(t, Config{Obs: obs.NewRegistry()})

	if code, _ := doReq(t, ts, http.MethodGet, "/v1/query?metric=fenrir_serve_ingest_total", nil); code != http.StatusNotFound {
		t.Fatalf("/v1/query without history: %d, want 404", code)
	}
	code, body := doReq(t, ts, http.MethodGet, "/v1/alerts", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"alerts": []`) {
		t.Fatalf("/v1/alerts without history: %d: %s", code, body)
	}
	_, body = doReq(t, ts, http.MethodGet, "/status", nil)
	if strings.Contains(string(body), `"alerts"`) {
		t.Fatalf("/status carries an alerts block without history: %s", body)
	}
}

// TestBurnRateFiresOverHTTP seeds a tight burn-rate rule and drives the
// incident through the public API: malformed ingest trips it, clean
// ingest resolves it.
func TestBurnRateFiresOverHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	rule := history.Rule{
		Name: "test-slo", Type: history.TypeBurnRate,
		ErrorMetric: "fenrir_serve_ingest_rejected_total",
		TotalMetric: "fenrir_serve_ingest_requests_total",
		Objective:   0.9, Factor: 2,
		FastRange: history.Duration(2 * time.Second),
		SlowRange: history.Duration(10 * time.Second),
	}
	s, ts := testServer(t, Config{Obs: reg, HistoryEvery: time.Hour, AlertRules: []history.Rule{rule}})
	defer s.Drain()

	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/alpha", defaultSpec(4)); code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, body)
	}
	findRule := func() history.AlertStatus {
		for _, a := range s.History().Alerts() {
			if a.Name == "test-slo" {
				return a
			}
		}
		t.Fatal("seeded rule missing from /v1/alerts")
		return history.AlertStatus{}
	}

	s.History().Tick()
	// 100% error ratio: every POST malformed.
	for i := 0; i < 20; i++ {
		doReq(t, ts, http.MethodPost, "/v1/tenants/alpha/observations", []byte("{not json"))
	}
	time.Sleep(50 * time.Millisecond)
	s.History().Tick()
	time.Sleep(50 * time.Millisecond)
	s.History().Tick()
	if st := findRule(); !st.Firing {
		t.Fatalf("rule quiet after 100%% rejects: %+v", st)
	}

	// Clean traffic until the fast window forgets the spike.
	nets := specNets(4)
	resolved := false
	for round := 0; round < 50 && !resolved; round++ {
		for e := round * 4; e < round*4+4; e++ {
			doReq(t, ts, http.MethodPost, "/v1/tenants/alpha/observations", observation(nets, e, 1<<30))
		}
		time.Sleep(100 * time.Millisecond)
		s.History().Tick()
		resolved = !findRule().Firing
	}
	if !resolved {
		t.Fatalf("rule never resolved under clean traffic: %+v", findRule())
	}
	if st := findRule(); st.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2", st.Transitions)
	}
}

// TestGovernorRollupsExact is the cardinality acceptance test at serve
// level: with far more tenants than the cap, tenant-labeled families
// stay bounded, overflow is counted, and the ungoverned daemon-wide
// ingest counter still accounts for every accepted observation — the
// sum over tenant-labeled ingest counters (including __other__) equals
// fenrir_serve_ingest_total.
func TestGovernorRollupsExact(t *testing.T) {
	reg := obs.NewRegistry()
	const tenants, cap = 40, 8
	_, ts := testServer(t, Config{Obs: reg, SeriesCap: cap})

	nets := specNets(4)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%02d", i)
		if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/"+name, defaultSpec(4)); code != http.StatusCreated {
			t.Fatalf("create %s: %d: %s", name, code, body)
		}
		mustIngest(t, ts, name, nets, 0, 3, 1000)
	}
	for i := 0; i < tenants; i++ {
		waitHistory(t, ts, fmt.Sprintf("t%02d", i), 3)
	}

	counters := reg.Read().Counters
	var tenantSum int64
	tenantValues := map[string]struct{}{}
	for name, v := range counters {
		if strings.HasPrefix(name, "fenrir_serve_tenant_ingest_total{") {
			tenantSum += v
			tenantValues[name] = struct{}{}
		}
	}
	total := counters["fenrir_serve_ingest_total"]
	if want := int64(tenants * 3); total != want {
		t.Fatalf("fenrir_serve_ingest_total = %d, want %d (it must never be governed)", total, want)
	}
	if tenantSum != total {
		t.Fatalf("tenant-labeled sum %d != fenrir_serve_ingest_total %d", tenantSum, total)
	}
	if len(tenantValues) > cap+1 {
		t.Fatalf("%d tenant ingest series, want <= cap+1 = %d", len(tenantValues), cap+1)
	}
	other := counters[fmt.Sprintf("fenrir_serve_tenant_ingest_total{tenant=%q}", obs.OtherTenant)]
	if other == 0 {
		t.Fatal("no ingest landed in the __other__ aggregate")
	}
	if counters[obs.DroppedSeriesMetric] == 0 {
		t.Fatal("dropped-series counter never moved")
	}
}
