package serve

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/obs"
	"fenrir/internal/snapshot"
	"fenrir/internal/timeline"
)

// snapSuffix names tenant checkpoint files: <snapshot-dir>/<name>.fsnap.
const snapSuffix = ".fsnap"

// queued is one admitted observation riding the ingest queue, stamped at
// admission so the worker can measure append-to-queryable lag.
type queued struct {
	v        *core.Vector
	admitted time.Time
}

// tenant is one hosted monitor plus its ingest machinery. Admission
// control is synchronous — the HTTP handler validates epoch order and
// reserves queue space under mu, so producers get their 400/429 before
// the response is written — while the actual Append runs on a single
// worker goroutine per tenant, keeping query latency independent of
// ingest cost.
type tenant struct {
	name string
	srv  *Server
	mon  *core.Monitor

	mu           sync.Mutex
	cond         *sync.Cond
	lastAccepted timeline.Epoch
	hasAccepted  bool
	pending      int  // accepted but not yet appended
	stopped      bool // worker told to exit

	// sinceCheckpoint counts the appends the last checkpoint's state
	// did not cover, guarded by mu: the worker adds each append, and a
	// checkpoint subtracts the appends its state covered since the
	// previous one.
	sinceCheckpoint int

	// ckptMu orders the tenant's checkpoints: each holds it from taking
	// its state to the rename, so a slower write of an older state never
	// lands over a newer one. ckptAppends, guarded by it, is the Appends
	// count of the state last written (or restored).
	ckptMu      sync.Mutex
	ckptAppends uint64

	queue chan queued
	done  chan struct{}

	// Per-tenant SLO instruments, resolved once at construction (all are
	// nil-safe no-op handles when the server runs without a registry):
	// admission latency, append-to-queryable lag, queue depth at admit,
	// and checkpoint duration/size.
	admitHist  *obs.Histogram
	lagHist    *obs.Histogram
	depthHist  *obs.Histogram
	ckptHist   *obs.Histogram
	ckptBytes  *obs.Histogram
	queueGauge *obs.Gauge
	snapBytes  *obs.Gauge // the last checkpoint's size
	// ingestCount is the tenant's accepted-append counter. Under the
	// cardinality governor an overflow tenant's handle resolves to the
	// shared {tenant="__other__"} counter, so the sum across all
	// tenant-labeled series always equals fenrir_serve_ingest_total.
	ingestCount *obs.Counter
}

func newTenant(name string, mon *core.Monitor, s *Server) *tenant {
	reg := s.cfg.Obs
	t := &tenant{
		name:  name,
		srv:   s,
		mon:   mon,
		queue: make(chan queued, s.cfg.queueDepth()),
		done:  make(chan struct{}),

		ckptAppends: mon.Snapshot().Appends,

		admitHist:   reg.Histogram(fmt.Sprintf("fenrir_serve_admission_seconds{tenant=%q}", name)),
		lagHist:     reg.Histogram(fmt.Sprintf("fenrir_serve_queryable_lag_seconds{tenant=%q}", name)),
		depthHist:   reg.Histogram(fmt.Sprintf("fenrir_serve_queue_depth_levels{tenant=%q}", name)),
		ckptHist:    reg.Histogram(fmt.Sprintf("fenrir_serve_checkpoint_seconds{tenant=%q}", name)),
		ckptBytes:   reg.Histogram(fmt.Sprintf("fenrir_serve_checkpoint_bytes{tenant=%q}", name)),
		queueGauge:  reg.Gauge(fmt.Sprintf("fenrir_serve_queue_depth{tenant=%q}", name)),
		snapBytes:   reg.Gauge(fmt.Sprintf("fenrir_snapshot_bytes{tenant=%q}", name)),
		ingestCount: reg.Counter(fmt.Sprintf("fenrir_serve_tenant_ingest_total{tenant=%q}", name)),
	}
	t.cond = sync.NewCond(&t.mu)
	mon.Instrument(s.cfg.Obs)
	if n := mon.Len(); n > 0 {
		t.lastAccepted = mon.Series().Vectors[n-1].T
		t.hasAccepted = true
	}
	go t.worker()
	return t
}

// slo rolls the tenant's SLO histograms into plain-data summaries for
// the status endpoint and run manifests.
func (t *tenant) slo() map[string]obs.HistogramSummary {
	return map[string]obs.HistogramSummary{
		"admission_seconds":     t.admitHist.Summary(),
		"queryable_lag_seconds": t.lagHist.Summary(),
		"queue_depth":           t.depthHist.Summary(),
		"checkpoint_seconds":    t.ckptHist.Summary(),
		"checkpoint_bytes":      t.ckptBytes.Summary(),
	}
}

// retryAfter estimates how long a rejected producer should wait before
// retrying, from the queue backlog and recent append throughput.
func (t *tenant) retryAfter() int {
	t.mu.Lock()
	pending := t.pending
	t.mu.Unlock()
	return retryAfterEstimate(pending, t.mon.Snapshot().MeanIngest())
}

// siteCell is one network's site label in an observation, its network
// already resolved to a row of the tenant's space.
type siteCell struct {
	net  int
	site string
}

// admit validates epoch order and reserves a queue slot, all under mu so
// concurrent producers serialize and each gets an accurate verdict. Only
// an accepted epoch's vector is built, interning its sites, and enqueued
// for the worker: a rejected observation leaves the tenant's site
// alphabet, and so its checkpoints, as they were. The returned error is
// one of the core typed ingest errors (mapped to 400 by the API layer);
// full reports queue saturation (mapped to 429).
func (t *tenant) admit(epoch timeline.Epoch, cells []siteCell) (err error, full bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return fmt.Errorf("serve: tenant %q is draining", t.name), false
	}
	if t.hasAccepted && epoch <= t.lastAccepted {
		if epoch == t.lastAccepted {
			return &core.DuplicateEpochError{Epoch: epoch}, false
		}
		return &core.OutOfOrderEpochError{Epoch: epoch, Newest: t.lastAccepted}, false
	}
	if len(t.queue) == cap(t.queue) {
		return nil, true
	}
	v := t.mon.Space().NewVector(epoch)
	for _, c := range cells {
		v.Set(c.net, c.site)
	}
	// Only admit sends, and only under mu, so the room seen above is
	// still there: the send cannot block.
	t.queue <- queued{v: v, admitted: time.Now()}
	t.lastAccepted = epoch
	t.hasAccepted = true
	t.pending++
	t.srv.addPending(1)
	depth := len(t.queue)
	t.queueGauge.Set(float64(depth))
	t.depthHist.Observe(float64(depth))
	return nil, false
}

// worker drains the ingest queue. Admission already enforced epoch
// order, so Append errors here indicate a wiring bug and are surfaced
// as a rejected-observation counter rather than a crash.
func (t *tenant) worker() {
	defer close(t.done)
	obsReg := t.srv.cfg.Obs
	for q := range t.queue {
		t0 := time.Now()
		sp := obsReg.TraceRoot().Child("ingest")
		sp.SetAttr("tenant", t.name)
		sp.SetAttr("epoch", int64(q.v.T))
		_, _, err := t.mon.Append(q.v)
		sp.End()
		var needCheckpoint bool
		t.mu.Lock()
		if err == nil {
			t.sinceCheckpoint++
			needCheckpoint = t.srv.cfg.SnapshotDir != "" && t.sinceCheckpoint >= t.srv.cfg.snapshotEvery()
		}
		t.pending--
		t.cond.Broadcast()
		t.mu.Unlock()
		t.srv.addPending(-1)
		if err != nil {
			t.srv.met.rejected["append"].Inc()
		} else {
			t.srv.met.ingested.Inc()
			t.ingestCount.Inc()
			t.srv.met.ingestSeconds.ObserveSince(t0)
			// Append-to-queryable lag: the observation became visible to
			// queries now; it was accepted at q.admitted.
			t.lagHist.ObserveSince(q.admitted)
		}
		if needCheckpoint {
			// checkpoint counts its own failures (every failure path —
			// worker, explicit handler, drain — lands in
			// fenrir_snapshot_errors_total exactly once); the worker only
			// adds the log line.
			if _, err := t.checkpoint(); err != nil {
				obsReg.Logger().Error("checkpoint failed", "tenant", t.name, "error", err.Error())
			}
		}
		t.queueGauge.Set(float64(len(t.queue)))
	}
}

// flush blocks until every accepted observation has been appended, which
// is what makes checkpoints and the query API agree with admission: a
// producer that saw 202 for epochs 0..n can flush and then read state
// that includes all of them.
func (t *tenant) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.pending > 0 {
		t.cond.Wait()
	}
}

// stop ends the worker after the queue drains. Further admits fail.
func (t *tenant) stop() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.stopped = true
	t.mu.Unlock()
	close(t.queue)
	<-t.done
}

// snapshotPath returns the tenant's checkpoint file path.
func (t *tenant) snapshotPath() string {
	return filepath.Join(t.srv.cfg.SnapshotDir, t.name+snapSuffix)
}

// beforeSave, when set, runs in every checkpoint between taking the
// tenant's state and saving it. Tests set it to hold a checkpoint there.
var beforeSave func(st core.MonitorState)

// checkpoint writes the tenant's state to its snapshot file and returns
// the encoded size. Callers who need the checkpoint to cover all
// accepted observations flush first; the worker calls it between
// appends where that already holds. One checkpoint of a tenant runs at
// a time, and each takes its state once the previous one has landed.
func (t *tenant) checkpoint() (int, error) {
	if t.srv.cfg.SnapshotDir == "" {
		return 0, fmt.Errorf("serve: no snapshot dir configured")
	}
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	t0 := time.Now()
	st := t.mon.State()
	if beforeSave != nil {
		beforeSave(st)
	}
	size, err := snapshot.SaveMonitor(t.snapshotPath(), st)
	if err != nil {
		// Count here, once, so every failure path — periodic worker
		// checkpoint, explicit POST …/checkpoint, drain — feeds the same
		// metric instead of only the worker's.
		t.srv.met.snapErrors.Inc()
		return 0, err
	}
	// Appends made after st was taken stay counted toward the next
	// periodic checkpoint.
	t.mu.Lock()
	t.sinceCheckpoint -= int(st.Appends - t.ckptAppends)
	t.mu.Unlock()
	t.ckptAppends = st.Appends
	t.srv.met.snapWrites.Inc()
	t.srv.met.snapSeconds.ObserveSince(t0)
	t.snapBytes.Set(float64(size))
	d := time.Since(t0)
	t.ckptHist.Observe(d.Seconds())
	t.ckptBytes.Observe(float64(size))
	t.srv.cfg.Obs.Logger().Info("checkpoint written",
		"tenant", t.name, "bytes", size, "history", len(st.Vectors),
		"seconds", d.Seconds())
	return size, nil
}
