package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"fenrir/internal/obs"
)

// The Retry-After estimator is a pure function of backlog and measured
// append throughput; this table covers the no-data and warm paths the
// HTTP layer relies on.
func TestRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		name       string
		pending    int
		meanAppend time.Duration
		want       int
	}{
		{"no data", 256, 0, 1}, // cold tenant: no throughput history → 1 s floor
		{"no backlog", 0, time.Second, 1},
		{"fast appends floor", 256, 100 * time.Microsecond, 1}, // 25.6 ms of work → floor
		{"warm estimate", 10, 500 * time.Millisecond, 5},       // 5 s of backlog
		{"rounds up", 3, 400 * time.Millisecond, 2},            // 1.2 s → ceil 2
		{"slow tenant", 256, time.Second, 256},
	}
	for _, tc := range cases {
		if got := retryAfterEstimate(tc.pending, tc.meanAppend); got != tc.want {
			t.Errorf("%s: retryAfterEstimate(%d, %v) = %d, want %d",
				tc.name, tc.pending, tc.meanAppend, got, tc.want)
		}
	}
}

// A 429 must carry the estimator's Retry-After (and a flight-recorder
// event), not the old hardcoded "1". The worker is deliberately absent
// so the queue state is deterministic.
func TestBackpressureRetryAfterHeader(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{QueueDepth: 2, Obs: reg})
	mon, err := monitorFromSpec(defaultSpec(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	nets := specNets(10)
	tn := &tenant{name: "stall", srv: s, mon: mon, queue: make(chan queued, 2), done: make(chan struct{})}
	tn.cond = sync.NewCond(&tn.mu)
	// No worker ever runs, so none closes done; close it before the
	// cleanup drain (cleanups run last-in first-out) waits on it.
	t.Cleanup(func() { close(tn.done) })
	s.addTenant(tn)

	for e := 0; e < 2; e++ {
		if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/stall/observations", observation(nets, e, 99)); code != http.StatusAccepted {
			t.Fatalf("fill epoch %d: %d %s", e, code, body)
		}
	}
	raw, err := json.Marshal(observation(nets, 2, 99))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/stall/observations", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429", resp.StatusCode)
	}
	got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || got < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	if want := tn.retryAfter(); got != want {
		t.Fatalf("Retry-After = %d, want estimator's %d", got, want)
	}
	// The rejection landed in the flight recorder.
	foundEvent := false
	for _, ev := range reg.Events(0) {
		if ev.Msg == "ingest backpressure" {
			foundEvent = true
		}
	}
	if !foundEvent {
		t.Fatal("429 did not record a flight event")
	}
}

// SLO telemetry: after a burst of ingests the status endpoint must
// report ordered admission-latency quantiles, and /debug/events must
// return the most recent N events while producers are still running.
// Runs under -race via make race.
func TestServeSLOAndDebugEventsUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	reg.BeginTrace("serve-test")
	_, ts := testServer(t, Config{Obs: reg})
	nets := specNets(30)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/slo", defaultSpec(30)); code != http.StatusCreated {
		t.Fatal("create failed")
	}

	// Concurrent producers racing with readers of /debug/events and
	// /debug/trace. Epoch-ordered admission means only one producer wins
	// each epoch; losers get 400s, which is fine — the point is the
	// endpoints stay consistent under concurrency.
	const epochs = 60
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				doReq(t, ts, http.MethodPost, "/v1/tenants/slo/observations", observation(nets, e, 30))
				if p == 0 {
					reg.Logger().Info("producer tick", "epoch", e)
				}
			}
		}(p)
	}
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		for i := 0; i < 20; i++ {
			code, body := doReq(t, ts, http.MethodGet, "/debug/events?n=8", nil)
			if code != http.StatusOK {
				readerErr <- errStatus(code)
				return
			}
			var doc struct {
				Events []obs.Event `json:"events"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				readerErr <- err
				return
			}
			if len(doc.Events) > 8 {
				readerErr <- errTooMany(len(doc.Events))
				return
			}
			doReq(t, ts, http.MethodGet, "/debug/trace", nil)
		}
	}()
	wg.Wait()
	if err := <-readerErr; err != nil {
		t.Fatalf("debug reader: %v", err)
	}
	waitHistory(t, ts, "slo", epochs)

	// Status must expose the SLO block with live quantiles.
	_, body := doReq(t, ts, http.MethodGet, "/v1/tenants/slo", nil)
	var st struct {
		SLO map[string]obs.HistogramSummary `json:"slo"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	adm, ok := st.SLO["admission_seconds"]
	if !ok || adm.Count != epochs {
		t.Fatalf("admission summary = %+v (want count %d) in %s", adm, epochs, body)
	}
	if !(adm.P50 > 0 && adm.P50 <= adm.P90 && adm.P90 <= adm.P99) {
		t.Fatalf("admission quantiles not ordered: %+v", adm)
	}
	lag := st.SLO["queryable_lag_seconds"]
	if lag.Count != epochs || lag.P99 <= 0 {
		t.Fatalf("lag summary = %+v", lag)
	}
	if _, ok := st.SLO["queue_depth"]; !ok {
		t.Fatalf("queue_depth summary missing: %s", body)
	}

	// The most recent N events drain oldest-first with monotone sequence
	// numbers.
	_, body = doReq(t, ts, http.MethodGet, "/debug/events?n=5", nil)
	var doc struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 5 {
		t.Fatalf("final drain = %d events, want 5", len(doc.Events))
	}
	for i := 1; i < len(doc.Events); i++ {
		if doc.Events[i].Seq <= doc.Events[i-1].Seq {
			t.Fatalf("event seqs not monotone: %+v", doc.Events)
		}
	}

	// The serve request path landed request spans under the trace root.
	found := false
	for _, rec := range reg.TraceRecords() {
		if rec.Name == "request" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no request spans recorded in trace")
	}
}

type errStatus int

func (e errStatus) Error() string { return "unexpected HTTP status " + strconv.Itoa(int(e)) }

type errTooMany int

func (e errTooMany) Error() string { return "drained " + strconv.Itoa(int(e)) + " events, want <= 8" }
