package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/snapshot"
)

// prepareState empties dir and, for workloads that restore their
// tenants, writes the pre-filled snapshots where shard 0 looks for them.
func prepareState(dir string, st *stream) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	shard := filepath.Join(dir, "shard-0")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	for t, b := range st.prefill {
		if err := os.WriteFile(filepath.Join(shard, st.names[t]+".fsnap"), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replicas builds one monitor per tenant in the state the daemon starts
// from: restored from the same snapshot bytes, or fresh from the spec.
func replicas(st *stream) ([]*core.Monitor, error) {
	out := make([]*core.Monitor, len(st.names))
	for t := range out {
		if st.prefill == nil {
			out[t] = newReplica(st.spec)
			continue
		}
		s, err := snapshot.DecodeMonitor(bytes.NewReader(st.prefill[t]))
		if err != nil {
			return nil, err
		}
		if out[t], err = core.RestoreMonitor(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// connections is the generator's keep-alive connection count: one per
// core, at most two, so the generator never outnumbers the cores it
// shares with the daemon.
func connections() int { return min(2, runtime.NumCPU()) }

// connFor assigns an event to a connection. With reads in the mix, one
// connection carries ingest and the other reads, so a slow /mode never
// delays an ingest behind it; otherwise tenants split by parity. Either
// way each tenant's epochs travel one connection, in order.
func connFor(ev event, conns int, reads bool) int {
	switch {
	case conns == 1:
		return 0
	case reads && ev.query:
		return 1
	case reads:
		return 0
	}
	return ev.tenant % conns
}

type outcome struct {
	code      int
	lat, late time.Duration // from the due time: to the response, and to the send
	err       error
}

// runServe is the untraced end-to-end run of a serve workload against a
// release-built daemon process under open-loop load.
func runServe(r *run) error {
	sh := r.w.serve
	st := genServe(r.seed, *sh, r.seconds)
	dir := filepath.Join(r.state, "snapshots")
	flags := daemonFlags(sh, dir)
	spec, err := json.Marshal(st.spec)
	if err != nil {
		return err
	}
	c := newClient()
	var d *daemon
	defer func() { d.stop() }()
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		d.stop()
		c.CloseIdleConnections()
		if err := prepareState(dir, st); err != nil {
			return err
		}
		t0 := time.Now()
		if d, err = startDaemon(r.daemon, flags); err != nil {
			return err
		}
		if err := waitHealthy(c, d.base); err != nil {
			return err
		}
		for _, name := range st.names {
			method, path, body, want := http.MethodPut, "/v1/tenants/"+name, spec, http.StatusCreated
			if st.prefill != nil {
				method, path, body, want = http.MethodGet, "/v1/tenants/"+name+"/mode", nil, http.StatusOK
			}
			code, msg, err := do(c, method, d.base+path, body)
			if err != nil || code != want {
				return fmt.Errorf("setup %s %s: HTTP %d %v: %s", method, path, code, err, bytes.TrimSpace(msg))
			}
		}
		setups = append(setups, time.Since(t0))
	}

	var before struct {
		Appends uint64 `json:"appends"`
	}
	if err := getJSON(c, d.base+"/status", &before); err != nil {
		return err
	}
	c.CloseIdleConnections()
	var completed atomic.Int64
	stop := make(chan struct{})
	cpuc := make(chan []time.Duration, 1)
	go func() { cpuc <- sampleCPU(d.pid(), &completed, stop) }()
	res := replay(d.base, st, sh.queryRate > 0, &completed)
	close(stop)
	cpus := <-cpuc
	if len(cpus) == 0 {
		return fmt.Errorf("no complete CPU window in %v", r.seconds)
	}

	accepted := 0
	var ingest, query, late []time.Duration
	for i, ev := range st.events {
		o := res[i]
		r.check(o.err == nil && o.code == ev.want, "tenant %s epoch %d query=%v: HTTP %d (want %d) %v",
			st.names[ev.tenant], ev.epoch, ev.query, o.code, ev.want, o.err)
		late = append(late, o.late)
		if ev.query {
			query = append(query, o.lat)
			continue
		}
		ingest = append(ingest, o.lat)
		if o.code == http.StatusAccepted {
			accepted++
		}
	}
	after, err := waitAppends(c, d.base, before.Appends+uint64(accepted))
	if err != nil {
		return err
	}
	hwm, err := procHWMMB(d.pid())
	if err != nil {
		return err
	}
	r.check(after == before.Appends+uint64(accepted), "daemon appended %d, want %d", after-before.Appends, accepted)

	if st.prefill != nil {
		reps, err := replicas(st)
		if err != nil {
			return err
		}
		feed(r, reps, st, func(i int) bool { return res[i].code == http.StatusAccepted })
		get := func(path string) (int, []byte, error) { return do(c, http.MethodGet, d.base+path, nil) }
		for t, name := range st.names {
			checkTenant(r, get, name, reps[t], reps[t].LiveModes())
		}
	}

	r.put("setup_s", "s", median(setups).Seconds())
	// A workload with reads reports its read latency: serve-deep exists
	// for the re-cluster a read pays after evictions, and its ingest path
	// is the handler serve-fleet already times at 25 times the rate. At
	// 40 posts/s that ingest median spread 17% over ten seeds, the reads'
	// 8%.
	headline := ingest
	if len(query) > 0 {
		headline = query
	}
	r.put("latency_p50_ms", "ms", ms(median(headline)))
	r.put("cpu_ms_per_op", "ms", ms(median(cpus)))
	r.put("rss_mb", "MB", hwm)
	r.detail["ingest_requests"] = len(ingest)
	r.detail["accepted"] = accepted
	r.detail["cpu_windows"] = len(cpus)
	r.detail["ingest_p50_ms"] = ms(median(ingest))
	r.detail["ingest_p90_ms"] = ms(quantile(ingest, 0.9))
	r.detail["ingest_p99_ms"] = ms(quantile(ingest, 0.99))
	r.detail["ingest_p99_samples_beyond"] = beyond(len(ingest), 0.99)
	if len(query) > 0 {
		r.detail["query_requests"] = len(query)
		r.detail["query_p50_ms"] = ms(median(query))
		r.detail["query_p90_ms"] = ms(quantile(query, 0.9))
		r.detail["query_p90_samples_beyond"] = beyond(len(query), 0.9)
	}
	r.detail["generator.late_p99_ms"] = ms(quantile(late, 0.99))
	r.detail["connections"] = connections()
	r.detail["error_rate"] = float64(r.failed) / float64(r.attempted)
	return nil
}

// replay sends the schedule open-loop: each request waits for its due
// time and is timed from it, so a stall also charges the requests queued
// behind it. Nothing is retried.
func replay(base string, st *stream, reads bool, completed *atomic.Int64) []outcome {
	res := make([]outcome, len(st.events))
	conns := connections()
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for i, ev := range st.events {
				if connFor(ev, conns, reads) != k {
					continue
				}
				due := start.Add(ev.due)
				sleepUntil(due)
				sent := time.Now()
				url := base + "/v1/tenants/" + st.names[ev.tenant]
				var o outcome
				if ev.query {
					o.code, _, o.err = do(cl, http.MethodGet, url+"/mode", nil)
				} else {
					o.code, _, o.err = do(cl, http.MethodPost, url+"/observations", ev.body)
				}
				o.lat, o.late = time.Since(due), sent.Sub(due)
				res[i] = o
				completed.Add(1)
			}
		}(k)
	}
	wg.Wait()
	return res
}

// cpuWindow is the span over which the daemon's CPU per completed request
// is taken; cpu_ms_per_op is the median over a run's windows, so a burst
// of host contention moves one window rather than the whole figure.
const cpuWindow = 2 * time.Second

// sampleCPU records the daemon's CPU per completed request in each full
// window until stop closes.
func sampleCPU(pid int, completed *atomic.Int64, stop <-chan struct{}) []time.Duration {
	var out []time.Duration
	tick := time.NewTicker(cpuWindow)
	defer tick.Stop()
	cpu0, err := procCPU(pid)
	n0 := completed.Load()
	for err == nil {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		var cpu time.Duration
		if cpu, err = procCPU(pid); err != nil {
			break
		}
		n := completed.Load()
		if n > n0 {
			out = append(out, (cpu-cpu0)/time.Duration(n-n0))
		}
		cpu0, n0 = cpu, n
	}
	return out
}

// feed appends every accepted observation to its tenant's replica; the
// daemon accepted each one, so the replica must too.
func feed(r *run, reps []*core.Monitor, st *stream, accepted func(i int) bool) {
	for i, ev := range st.events {
		if ev.query || !accepted(i) {
			continue
		}
		m := reps[ev.tenant]
		_, _, err := m.Append(vectorIn(m.Space(), ev.epoch, st.sites, ev.cells))
		r.check(err == nil, "replica of %s refused epoch %d the daemon accepted: %v", st.names[ev.tenant], ev.epoch, err)
	}
}

func waitHealthy(c *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, err := do(c, http.MethodGet, base+"/healthz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy: HTTP %d %v", code, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitAppends polls /status until the daemon has appended want
// observations in total, and returns the count it saw last.
func waitAppends(c *http.Client, base string, want uint64) (uint64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var s struct {
			Appends uint64 `json:"appends"`
		}
		if err := getJSON(c, base+"/status", &s); err != nil {
			return 0, err
		}
		if s.Appends >= want || time.Now().After(deadline) {
			return s.Appends, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkTenant compares a tenant's /mode and /events answers with the
// answers its replica gives; modes is the replica's LiveModes.
func checkTenant(r *run, get func(path string) (int, []byte, error), name string, rep *core.Monitor, modes *core.ModesResult) {
	code, body, err := get("/v1/tenants/" + name + "/mode")
	r.check(err == nil && code == http.StatusOK && sameJSON(body, wantMode(rep, modes)),
		"tenant %s /mode differs from its replica: HTTP %d %v: %s", name, code, err, body)
	code, body, err = get("/v1/tenants/" + name + "/events")
	r.check(err == nil && code == http.StatusOK && sameJSON(body, wantEvents(rep)),
		"tenant %s /events differs from its replica: HTTP %d %v", name, code, err)
}

// wantMode is the /mode body serve writes for a monitor in rep's state.
func wantMode(rep *core.Monitor, modes *core.ModesResult) any {
	cur := modes.ModeOf(rep.Len() - 1)
	if cur == nil {
		return nil
	}
	ranges := make([]map[string]int64, 0, len(cur.Ranges))
	for _, rg := range cur.Ranges {
		ranges = append(ranges, map[string]int64{"from": int64(rg.From), "to": int64(rg.To)})
	}
	return map[string]any{
		"mode_id": cur.ID, "epochs": len(cur.Epochs), "ranges": ranges,
		"phi_lo": cur.InternalLo, "phi_hi": cur.InternalHi,
		"threshold": modes.Threshold, "modes_total": len(modes.Modes),
	}
}

// wantEvents is the /events body (default n=20) for rep's history.
func wantEvents(rep *core.Monitor) any {
	events := core.DetectChanges(rep.Series(), rep.Weights(), rep.Detect())
	if len(events) > 20 {
		events = events[len(events)-20:]
	}
	out := make([]map[string]any, 0, len(events))
	for _, ev := range events {
		out = append(out, map[string]any{
			"at": int64(ev.At), "phi": ev.Phi, "baseline": ev.Baseline, "magnitude": ev.Magnitude,
		})
	}
	return map[string]any{"events": out}
}

// sameJSON compares a response body with want as decoded JSON values.
func sameJSON(got []byte, want any) bool {
	raw, err := json.Marshal(want)
	if err != nil {
		return false
	}
	var g, w any
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(raw, &w) != nil {
		return false
	}
	return reflect.DeepEqual(g, w)
}
