package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Fuzz targets for the daemon's JSON inputs, driven through the real
// handler stack: no request body may panic a handler or earn a 5xx.

// fuzzHandler is a daemon with no snapshot dir, drained when the fuzz
// run ends.
func fuzzHandler(f *testing.F) http.Handler {
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Drain() }) //nolint:errcheck // nothing to checkpoint
	return s.Handler()
}

func serveBody(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// FuzzIngestBody POSTs arbitrary bytes as one observation of a tenant
// whose 32-epoch window bounds the history however many get through.
func FuzzIngestBody(f *testing.F) {
	h := fuzzHandler(f)
	spec := defaultSpec(6)
	spec.Window = 32
	if rec := serveBody(h, http.MethodPut, "/v1/tenants/fz", mustJSON(f, spec)); rec.Code != http.StatusCreated {
		f.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	nets := specNets(6)
	for e := 0; e < 3; e++ {
		f.Add(mustJSON(f, observation(nets, e, 2)))
	}
	f.Add([]byte("{not json"))
	f.Add(mustJSON(f, Observation{Epoch: 50, Sites: map[string]string{"who-dis": "alpha"}}))
	f.Add(mustJSON(f, Observation{Epoch: -1}))
	f.Fuzz(func(t *testing.T, body []byte) {
		if rec := serveBody(h, http.MethodPost, "/v1/tenants/fz/observations", body); rec.Code >= 500 {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// FuzzTenantSpec PUTs arbitrary bytes as a tenant spec. The first spec
// accepted creates the tenant and later ones conflict, so every input
// still runs the full spec validation and monitor construction.
func FuzzTenantSpec(f *testing.F) {
	h := fuzzHandler(f)
	f.Add(mustJSON(f, defaultSpec(4)))
	f.Add(mustJSON(f, TenantSpec{}))
	weights := defaultSpec(4)
	weights.Weights = []float64{1, 2}
	f.Add(mustJSON(f, weights))
	mode := defaultSpec(4)
	mode.UnknownMode = "optimistic"
	f.Add(mustJSON(f, mode))
	detect := defaultSpec(6)
	detect.UnknownMode = "known-only"
	detect.Detect = &DetectSpec{Mode: "pessimistic", Window: 1 << 40}
	f.Add(mustJSON(f, detect))
	window := defaultSpec(6)
	window.Window = 16
	f.Add(mustJSON(f, window))
	f.Fuzz(func(t *testing.T, body []byte) {
		if rec := serveBody(h, http.MethodPut, "/v1/tenants/fz", body); rec.Code >= 500 {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}
