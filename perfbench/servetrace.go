package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/obs"
	"fenrir/internal/serve"
	"fenrir/internal/snapshot"
)

// checkpointEvery is the daemon's checkpoint cadence in appends; the
// traced run encodes a replica's state at the same cadence.
const checkpointEvery = 64

// drainSample caps how many tenants the traced run checkpoints and
// restores at its end.
const drainSample = 64

// serveLayers are the per-layer samples of a traced serve profile.
type serveLayers struct {
	decode, handler, create, appendBare, appendInst []time.Duration
	modeHandler, live, encode, restore              []time.Duration
	traced, untraced, late                          []time.Duration
	snapBytes, lagP50, lagP99, lookupNS             []float64
	grafts, spills                                  int64
	series                                          *core.Series // the first tenant's history
}

// inproc drives serve's handler directly, with no socket.
type inproc struct{ h http.Handler }

func (p inproc) do(req *http.Request) (int, []byte) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (p inproc) get(path string) (int, []byte, error) {
	code, body := p.do(httptest.NewRequest(http.MethodGet, path, nil))
	return code, body, nil
}

// profileServe replays st's schedule (events due within budget) through
// an in-process serve.Server configured like the daemon, timing each
// layer call. Each accepted observation also feeds two replica monitors
// per tenant, one bare and one with a shared registry attached as serve
// attaches its own, so Append and its instrumentation are timed apart.
func profileServe(r *run, tr *tracer, st *stream, budget time.Duration, dir string) (*serveLayers, error) {
	l := &serveLayers{}
	if err := prepareState(dir, st); err != nil {
		return nil, err
	}
	cfg := serve.Config{Obs: obs.NewRegistry(), DefaultWindow: st.window, HistoryEvery: 10 * time.Second}
	bare := make([]*core.Monitor, len(st.names))
	inst := make([]*core.Monitor, len(st.names))
	ireg := obs.NewRegistry()
	for t, name := range st.names {
		if st.prefill == nil {
			bare[t], inst[t] = newReplica(st.spec), newReplica(st.spec)
		} else {
			cfg.SnapshotDir, cfg.SnapshotEvery = dir, checkpointEvery
			path := filepath.Join(dir, "shard-0", name+".fsnap")
			for _, m := range []*[]*core.Monitor{&bare, &inst} {
				o := tr.op("restore", true)
				var err error
				l.restore = append(l.restore, o.step("snapshot.restore", func() {
					(*m)[t], err = snapshot.LoadMonitor(path)
				}))
				o.end()
				if err != nil {
					return nil, err
				}
			}
		}
		inst[t].Instrument(ireg)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	p := inproc{srv.Handler()}

	// Restored tenants already exist, so a restoring workload times the
	// create path with its spec under a second name that gets no traffic.
	spec, err := json.Marshal(st.spec)
	if err != nil {
		return nil, err
	}
	for _, name := range st.names {
		if st.prefill != nil {
			name += "-spec"
		}
		req := httptest.NewRequest(http.MethodPut, "/v1/tenants/"+name, bytes.NewReader(spec))
		var code int
		o := tr.op("create", true)
		l.create = append(l.create, o.step("serve.create_tenant", func() { code, _ = p.do(req) }))
		o.end()
		r.check(code == http.StatusCreated, "create %s: HTTP %d", name, code)
	}

	accepted := make([]int, len(st.names))
	start := time.Now()
	for k, ev := range st.events {
		if ev.due >= budget {
			break
		}
		due := start.Add(ev.due)
		sleepUntil(due)
		l.late = append(l.late, time.Since(due))
		traced := k%2 == 1
		url := "/v1/tenants/" + st.names[ev.tenant]
		if ev.query {
			req := httptest.NewRequest(http.MethodGet, url+"/mode", nil)
			var code int
			o := tr.op("query", traced)
			dh := o.step("serve.mode_handler", func() { code, _ = p.do(req) })
			dl := o.step("core.modes_live", func() { inst[ev.tenant].LiveModes() })
			o.end()
			if traced {
				l.modeHandler, l.live = append(l.modeHandler, dh), append(l.live, dl)
			}
			r.check(code == ev.want, "in-process %s/mode: HTTP %d", url, code)
			continue
		}
		req := httptest.NewRequest(http.MethodPost, url+"/observations", bytes.NewReader(ev.body))
		vb := vectorIn(bare[ev.tenant].Space(), ev.epoch, st.sites, ev.cells)
		vi := vectorIn(inst[ev.tenant].Space(), ev.epoch, st.sites, ev.cells)
		var code int
		var ob serve.Observation
		var decodeErr, appendErr error
		t0 := time.Now()
		o := tr.op("ingest", traced)
		dd := o.step("serve.decode", func() { decodeErr = json.Unmarshal(ev.body, &ob) })
		dh := o.step("serve.ingest_handler", func() { code, _ = p.do(req) })
		var db, di, de time.Duration
		if code == http.StatusAccepted {
			// Alternate which replica appends first, so neither always
			// finds the caches warmed by the other.
			bareAppend := func() { db = o.step("core.monitor_append", func() { _, _, appendErr = bare[ev.tenant].Append(vb) }) }
			instAppend := func() {
				di = o.step("obs.instrumented_append", func() { inst[ev.tenant].Append(vi) }) //nolint:errcheck // same input as the bare replica
			}
			if k%4 < 2 {
				bareAppend()
				instAppend()
			} else {
				instAppend()
				bareAppend()
			}
			accepted[ev.tenant]++
			if accepted[ev.tenant]%checkpointEvery == 0 {
				var n int
				de = o.step("snapshot.encode", func() { n = encodeState(bare[ev.tenant]) })
				if traced {
					l.snapBytes = append(l.snapBytes, float64(n))
				}
			}
		}
		if traced {
			l.traced = append(l.traced, o.end())
			l.decode, l.handler = append(l.decode, dd), append(l.handler, dh)
			if code == http.StatusAccepted {
				l.appendBare, l.appendInst = append(l.appendBare, db), append(l.appendInst, di)
			}
			if de > 0 {
				l.encode = append(l.encode, de)
			}
		} else {
			l.untraced = append(l.untraced, time.Since(t0))
		}
		r.check(decodeErr == nil && appendErr == nil && code == ev.want,
			"in-process ingest %s epoch %d: HTTP %d (want %d) %v %v", url, ev.epoch, code, ev.want, decodeErr, appendErr)
	}

	// Wait for every tenant's queue to drain, then read its lag SLO from
	// the public tenant status.
	for t, name := range st.names {
		for {
			var s struct {
				Appends uint64 `json:"appends"`
				Pending int    `json:"pending"`
				SLO     map[string]obs.HistogramSummary
			}
			_, body, _ := p.get("/v1/tenants/" + name)
			if err := json.Unmarshal(body, &s); err != nil {
				return nil, fmt.Errorf("tenant %s status: %w", name, err)
			}
			if s.Pending > 0 {
				time.Sleep(time.Millisecond)
				continue
			}
			r.check(s.Appends == uint64(bare[t].Snapshot().Appends), "tenant %s appended %d, replica %d",
				name, s.Appends, bare[t].Snapshot().Appends)
			if lag := s.SLO["queryable_lag_seconds"]; lag.Count > 0 {
				l.lagP50 = append(l.lagP50, lag.P50*1e3)
				l.lagP99 = append(l.lagP99, lag.P99*1e3)
			}
			break
		}
	}

	// Handle lookups on the server's registry, at this workload's series
	// count: the call serve makes when it resolves a metric by name.
	counters := make([]string, len(st.names))
	for t, name := range st.names {
		counters[t] = fmt.Sprintf("fenrir_serve_tenant_ingest_total{tenant=%q}", name)
	}
	for round := 0; round < 20; round++ {
		t0 := time.Now()
		for j := 0; j < 1000; j++ {
			cfg.Obs.Counter(counters[j%len(counters)])
		}
		l.lookupNS = append(l.lookupNS, float64(time.Since(t0).Nanoseconds())/1000)
	}

	// Final reads: every tenant's /mode and /events must equal its
	// replica's answers.
	for t, name := range st.names {
		var code int
		var modes *core.ModesResult
		o := tr.op("check", true)
		l.modeHandler = append(l.modeHandler, o.step("serve.mode_handler", func() { code, _, _ = p.get("/v1/tenants/" + name + "/mode") }))
		l.live = append(l.live, o.step("core.modes_live", func() { modes = bare[t].LiveModes() }))
		o.end()
		r.check(code == http.StatusOK, "in-process %s/mode: HTTP %d", name, code)
		checkTenant(r, p.get, name, bare[t], modes)
	}

	// The drain checkpoint: encode a sample of tenants, write each file,
	// and time restoring it.
	ddir := filepath.Join(dir, "drain")
	if err := os.MkdirAll(ddir, 0o755); err != nil {
		return nil, err
	}
	for t, name := range st.names[:min(drainSample, len(st.names))] {
		var buf bytes.Buffer
		var err error
		o := tr.op("drain", true)
		l.encode = append(l.encode, o.step("snapshot.encode", func() { err = snapshot.EncodeMonitor(&buf, bare[t].State()) }))
		if err != nil {
			return nil, err
		}
		l.snapBytes = append(l.snapBytes, float64(buf.Len()))
		path := filepath.Join(ddir, name+".fsnap")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		var m *core.Monitor
		l.restore = append(l.restore, o.step("snapshot.restore", func() { m, err = snapshot.LoadMonitor(path) }))
		o.end()
		r.check(err == nil && m.Len() == bare[t].Len(), "restore %s: %v", name, err)
	}
	if err := srv.Drain(); err != nil {
		return nil, err
	}
	l.grafts = ireg.Counter("fenrir_monitor_mode_grafts_total").Value()
	l.spills = ireg.Counter("fenrir_monitor_mode_graft_spills_total").Value()
	l.series = bare[0].Series()
	return l, nil
}

// encodeState is the checkpoint's encode half: export, then encode.
func encodeState(m *core.Monitor) int {
	var buf bytes.Buffer
	if err := snapshot.EncodeMonitor(&buf, m.State()); err != nil {
		panic(err) // an in-memory encode of a live monitor cannot fail
	}
	return buf.Len()
}

func (l *serveLayers) put(r *run) {
	r.put("serve.decode_us", "us", us(median(l.decode)))
	r.put("serve.ingest_handler_us", "us", us(median(l.handler)))
	r.put("serve.ingest_handler_p99_us", "us", us(quantile(l.handler, 0.99)))
	r.put("serve.create_tenant_us", "us", us(median(l.create)))
	r.put("serve.mode_handler_ms", "ms", ms(median(l.modeHandler)))
	r.put("serve.queue_lag_p50_ms", "ms", medianF(l.lagP50))
	r.put("serve.queue_lag_p99_ms", "ms", medianF(l.lagP99))
	r.put("core.monitor_append_us", "us", us(median(l.appendBare)))
	r.put("obs.instrument_us_per_append", "us", us(median(l.appendInst))-us(median(l.appendBare)))
	r.put("obs.handle_lookup_ns", "ns", medianF(l.lookupNS))
	r.put("core.modes_live_ms", "ms", ms(median(l.live)))
	share := 0.0
	if n := l.grafts + l.spills; n > 0 {
		share = float64(l.grafts) / float64(n)
	}
	r.put("core.modes_graft_share", "ratio", share)
	r.put("snapshot.encode_ms", "ms", ms(median(l.encode)))
	r.put("snapshot.bytes", "bytes", medianF(l.snapBytes))
	r.put("snapshot.restore_ms", "ms", ms(median(l.restore)))
	r.put("generator.late_p99_ms", "ms", ms(quantile(l.late, 0.99)))
}

// coverage is Σ layer medians over the traced ingest median, and
// overhead the traced ingest median over the untraced one, minus one.
func (l *serveLayers) coverage() (cov, over float64) {
	sum := median(l.decode) + median(l.handler) + median(l.appendBare) + median(l.appendInst)
	return float64(sum) / float64(median(l.traced)), float64(median(l.traced))/float64(median(l.untraced)) - 1
}

// runTraced is a workload's traced run. Its own path gets two thirds of
// the time; the rest profiles the other path on the same data, so every
// run reports every layer: a batch workload's series streamed as one
// tenant, or a serve workload's first tenant history analysed in batch.
// Coverage and overhead come from the workload's own path.
func runTraced(r *run) error {
	tr := newTracer()
	own := r.seconds * 2 / 3
	dir := filepath.Join(r.state, "snapshots")
	var bl *batchLayers
	var sl *serveLayers
	var cov, over float64
	if r.w.batch != nil {
		in := genBatch(r.seed, *r.w.batch)
		bl = profileBatch(r, tr, in.series(), own)
		var err error
		if sl, err = profileServe(r, tr, streamFromBatch(in, r.seconds-own), r.seconds-own, dir); err != nil {
			return err
		}
		cov, over = bl.coverage()
	} else {
		var err error
		if sl, err = profileServe(r, tr, genServe(r.seed, *r.w.serve, r.seconds), own, dir); err != nil {
			return err
		}
		bl = profileBatch(r, tr, sl.series, r.seconds-own)
		cov, over = sl.coverage()
	}
	bl.put(r)
	sl.put(r)
	r.put("trace.layer_coverage", "ratio", cov)
	r.put("trace.overhead", "ratio", over)
	path := filepath.Join(r.state, "trace-"+r.w.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	r.detail["trace_file"] = path
	r.detail["spans"] = len(tr.spans)
	r.detail["traced_ops"] = len(bl.traced) + len(sl.traced)
	r.detail["error_rate"] = float64(r.failed) / float64(r.attempted)
	return nil
}
