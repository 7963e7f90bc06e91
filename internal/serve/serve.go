// Package serve is Fenrir's long-running daemon layer: named Monitor
// tenants behind an HTTP API, so operators stream observations in as
// they are collected and read the live analysis back out — current
// routing mode, change events, Φ heatmap rows, transition matrices —
// without re-running a batch job every four minutes.
//
// The daemon is built for unattended operation. Ingest queues are
// bounded and reject with 429 + Retry-After instead of buffering
// without limit; malformed or out-of-order observations degrade into
// 400s backed by the core package's typed errors; observations pass
// through the fault-injection seam so `-faults` profiles exercise the
// serving path like every other substrate; and tenants checkpoint to
// internal/snapshot files so a restarted daemon answers queries
// byte-identically to one that never stopped.
//
// Tenants live in one table, and each checkpoints to
// <dir>/<name>.fsnap. SIGTERM drains them through a fixed pool of
// drainLanes goroutines.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
	"fenrir/internal/obs/history"
	"fenrir/internal/snapshot"
)

// Config tunes a Server. The zero value serves from memory only: no
// checkpoints, default queue depth, no instrumentation, no faults.
type Config struct {
	// SnapshotDir is where tenant checkpoints live ("" disables
	// checkpointing), one file per tenant: <dir>/<name>.fsnap. On
	// startup every checkpoint found there is restored, so a warm
	// restart resumes exactly where the previous process stopped.
	SnapshotDir string
	// SnapshotEvery checkpoints a tenant after this many accepted
	// observations (<= 0 means every 64). Tenants also checkpoint on
	// drain and on explicit POST …/checkpoint.
	SnapshotEvery int
	// QueueDepth bounds each tenant's ingest queue (<= 0 means 256).
	// A full queue rejects with 429 rather than stalling the producer.
	QueueDepth int
	// DefaultWindow is the sliding-window bound applied to tenants whose
	// spec does not set one (0 = unbounded), and to restored tenants
	// whose checkpoint carries no window of its own — so an unbounded
	// snapshot restarted under -window is bounded exactly like an
	// identical freshly created tenant. A windowed tenant retains only
	// its newest Window observations; see core.MonitorOptions.
	DefaultWindow int
	// Obs receives serve metrics; nil disables instrumentation.
	Obs *obs.Registry
	// Faults, when non-nil, mangles ingest the way it mangles every
	// other substrate: request bodies pass through Datagram (loss,
	// corruption, duplication) and site labels through SiteLabel.
	Faults *faults.Injector
	// HistoryEvery enables the telemetry history sampler (DESIGN.md §16):
	// every interval the daemon scrapes its own registry into ring
	// buffers served at /v1/query and /debug/timeline, and evaluates the
	// alert rules. <= 0 disables history entirely (the zero Config stays
	// inert); `fenrir -serve` defaults the flag to 10s.
	HistoryEvery time.Duration
	// HistoryRetain bounds each history series to this many samples
	// (<= 0 means history.DefaultRetain).
	HistoryRetain int
	// AlertRules are evaluated after every history sample, in addition
	// to DefaultAlertRules. Ignored unless HistoryEvery > 0.
	AlertRules []history.Rule
	// SeriesCap caps per-metric-family tenant label cardinality in the
	// registry: past the cap, new tenant-labeled series collapse into
	// {tenant="__other__"} and fenrir_obs_dropped_series_total counts the
	// overflow. The daemon-wide series carry no tenant label and are
	// never governed, so they stay exact at any tenant count. <= 0
	// disables.
	SeriesCap int
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 256
	}
	return c.QueueDepth
}

func (c Config) snapshotEvery() int {
	if c.SnapshotEvery <= 0 {
		return 64
	}
	return c.SnapshotEvery
}

// Sentinel errors Server.insert returns; the API layer maps them to 503
// and 409.
var (
	errDraining = errors.New("serve: server is draining")
	errExists   = errors.New("serve: tenant already exists")
)

// drainLanes is how many tenants Drain stops and checkpoints at once. A
// final checkpoint spends more of its time waiting on its two fsyncs
// than encoding, so lanes beyond the core count still help: on a 2-core
// host, draining 64 tenants with 5.25 MB checkpoints took a median
// 471 ms through 1 lane, 309 ms through 2, 284 ms through 4, 246 ms
// through 8 and 230 ms through 16.
const drainLanes = 8

// Server hosts named monitor tenants. Create with New, mount Handler on
// an http.Server, and call Drain before exit.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// mu guards tenants, the one table of hosted tenants. Drain sets
	// draining under mu, so an insert either lands before Drain captures
	// the table or fails with errDraining.
	mu       sync.RWMutex
	tenants  map[string]*tenant
	draining atomic.Bool

	// pending aggregates admitted-but-not-yet-appended observations
	// across all tenants, mirrored into the pending gauge so /status and
	// /metrics show the backlog without walking every tenant under its
	// lock.
	pending atomic.Int64
	// drainNanos is the wall time of the last Drain (0 until one runs),
	// shown in /status and the drain gauge.
	drainNanos atomic.Int64

	// hist is the telemetry history store (nil unless HistoryEvery > 0);
	// its sampler goroutine starts in New and stops in Drain.
	hist *history.Store

	// met holds the daemon-wide metric handles, resolved once in New
	// (nil-safe no-ops without a registry).
	met serverMetrics
}

// serverMetrics are the daemon-wide handles the ingest, checkpoint and
// drain paths feed. None carries a tenant label, so the cardinality
// governor leaves them exact.
type serverMetrics struct {
	ingestRequests, ingested, ingestRejected *obs.Counter
	snapWrites, snapErrors                   *obs.Counter
	ingestSeconds, snapSeconds, admitSeconds *obs.Histogram
	tenants, pending, drainSeconds           *obs.Gauge
	// rejected holds fenrir_serve_rejected_total{reason} per reason.
	rejected map[string]*obs.Counter
}

// rejectReasons are the reason label values of
// fenrir_serve_rejected_total: "append" counts observations the tenant
// worker failed to append, the others ingest requests (or, for
// "duplicate", a fault-duplicated copy) turned away at admission.
var rejectReasons = []string{"append", "draining", "read", "dropped", "malformed", "backpressure", "duplicate", "order"}

// New builds a server and, when cfg.SnapshotDir is set, warm-restarts
// every tenant checkpointed there.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg, tenants: make(map[string]*tenant)}
	// The governor must be in place before any tenant-labeled series is
	// resolved (restore creates per-tenant instruments), so overflow
	// tenants collapse into __other__ from the very first registration.
	cfg.Obs.SetSeriesCap(cfg.SeriesCap)
	s.met = serverMetrics{
		ingestRequests: cfg.Obs.Counter("fenrir_serve_ingest_requests_total"),
		ingested:       cfg.Obs.Counter("fenrir_serve_ingest_total"),
		ingestRejected: cfg.Obs.Counter("fenrir_serve_ingest_rejected_total"),
		snapWrites:     cfg.Obs.Counter("fenrir_snapshot_writes_total"),
		snapErrors:     cfg.Obs.Counter("fenrir_snapshot_errors_total"),
		ingestSeconds:  cfg.Obs.Histogram("fenrir_serve_ingest_seconds"),
		snapSeconds:    cfg.Obs.Histogram("fenrir_snapshot_seconds"),
		admitSeconds:   cfg.Obs.Histogram("fenrir_serve_admission_seconds"),
		tenants:        cfg.Obs.Gauge("fenrir_serve_tenants"),
		pending:        cfg.Obs.Gauge("fenrir_serve_pending"),
		drainSeconds:   cfg.Obs.Gauge("fenrir_serve_drain_seconds"),
		rejected:       make(map[string]*obs.Counter, len(rejectReasons)),
	}
	for _, reason := range rejectReasons {
		s.met.rejected[reason] = cfg.Obs.Counter(fmt.Sprintf("fenrir_serve_rejected_total{reason=%q}", reason))
	}
	if cfg.HistoryEvery > 0 {
		s.hist = history.New(cfg.Obs, history.Config{
			Every:  cfg.HistoryEvery,
			Retain: cfg.HistoryRetain,
			Rules:  append(DefaultAlertRules(), cfg.AlertRules...),
		})
	}
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: snapshot dir: %w", err)
		}
		if err := s.restoreAll(); err != nil {
			return nil, err
		}
	}
	s.mux = s.buildMux()
	s.setTenantGauge()
	s.hist.Start()
	return s, nil
}

// History returns the telemetry history store, or nil when the daemon
// runs without sampling (HistoryEvery <= 0).
func (s *Server) History() *history.Store { return s.hist }

// DefaultAlertRules are the rules every history-enabled daemon carries:
// an ingest-availability SLO burn-rate rule over the request/reject
// counters, and a threshold rule that fires while snapshot writes are
// failing. Rules passed via Config.AlertRules (the -alert-rules file)
// are evaluated in addition to these.
func DefaultAlertRules() []history.Rule {
	return []history.Rule{
		{
			Name:        "serve-ingest-availability",
			Type:        history.TypeBurnRate,
			ErrorMetric: "fenrir_serve_ingest_rejected_total",
			TotalMetric: "fenrir_serve_ingest_requests_total",
			Objective:   0.99,
			Factor:      2,
			FastRange:   history.Duration(5 * time.Minute),
			SlowRange:   history.Duration(30 * time.Minute),
		},
		{
			Name:   "serve-snapshot-errors",
			Type:   history.TypeThreshold,
			Metric: "fenrir_snapshot_errors_total",
			Fn:     "delta",
			Op:     ">",
			Value:  0,
			Range:  history.Duration(10 * time.Minute),
		},
	}
}

// restoreAll loads every checkpoint in SnapshotDir. Orphaned checkpoint
// temp files are removed on the way, and unreadable checkpoints are set
// aside (see setAside). New calls it before the server is shared, so the
// table is written without mu.
//
// It also reads the layout daemons wrote before checkpoints were flat,
// <dir>/shard-<k>/<name>.fsnap, after the flat files. A tenant found
// more than once keeps the copy with the most appends (a tie keeps the
// one read first, so the flat copy) and the others are deleted, all
// before any tenant is built. A restored legacy copy is superseded by
// the tenant's first flat checkpoint and deleted at the next restart.
func (s *Server) restoreAll() error {
	type found struct {
		path string
		mon  *core.Monitor
	}
	best := make(map[string]found)
	orphans := s.cfg.Obs.Counter("fenrir_snapshot_orphans_removed_total")
	dirs := []string{s.cfg.SnapshotDir}
	for i := 0; i < len(dirs); i++ { // scanning dirs[0] appends its shard-<k> directories
		files, err := os.ReadDir(dirs[i])
		if err != nil {
			return fmt.Errorf("serve: scan snapshot dir: %w", err)
		}
		for _, e := range files {
			path := filepath.Join(dirs[i], e.Name())
			if e.IsDir() {
				if i == 0 && isLegacyShardDir(e.Name()) {
					dirs = append(dirs, path)
				}
				continue
			}
			if !strings.HasSuffix(e.Name(), snapSuffix) {
				if strings.Contains(e.Name(), snapSuffix+".tmp-") {
					// A checkpoint's temp file (<name>.fsnap.tmp-*): the
					// process died between creating it and renaming it
					// into place, so its deferred remove never ran.
					if err := os.Remove(path); err != nil {
						return fmt.Errorf("serve: remove orphaned checkpoint: %w", err)
					}
					orphans.Inc()
					s.cfg.Obs.Logger().Warn("orphaned checkpoint temp file removed", "file", path)
				}
				continue
			}
			name := strings.TrimSuffix(e.Name(), snapSuffix)
			mon, err := s.loadMonitor(path)
			if err != nil {
				if err := s.setAside(name, path, err); err != nil {
					return err
				}
				continue
			}
			prev, dup := best[name]
			if !dup {
				best[name] = found{path, mon}
				continue
			}
			keep, drop := prev, found{path, mon}
			if mon.Snapshot().Appends > prev.mon.Snapshot().Appends {
				keep, drop = drop, keep
			}
			best[name] = keep
			s.cfg.Obs.Logger().Warn("duplicate tenant snapshot discarded",
				"tenant", name, "file", drop.path, "kept", keep.path)
			if err := os.Remove(drop.path); err != nil {
				return fmt.Errorf("serve: remove duplicate checkpoint: %w", err)
			}
		}
	}
	// Build tenants in name order: with a series cap, which tenants keep
	// their own series depends on the order they register.
	names := make([]string, 0, len(best))
	for name := range best {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.tenants[name] = newTenant(name, best[name].mon, s)
	}
	return nil
}

// isLegacyShardDir reports whether a snapshot dir entry is a directory
// name of the sharded layout, shard-<k>. Only directories qualify: a
// tenant may be named shard-1, and its checkpoint is shard-1.fsnap.
func isLegacyShardDir(name string) bool {
	k, ok := strings.CutPrefix(name, "shard-")
	if !ok {
		return false
	}
	_, err := strconv.ParseUint(k, 10, 32)
	return err == nil
}

// loadMonitor decodes one checkpoint and restores the monitor, applying
// the server's default window to states that carry none — the restore
// half of the DefaultWindow contract (see Config.DefaultWindow).
func (s *Server) loadMonitor(path string) (*core.Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := snapshot.DecodeMonitor(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	st.ApplyDefaultWindow(s.cfg.DefaultWindow)
	m, err := core.RestoreMonitor(st)
	if err != nil {
		// The frames passed their checks but the state breaks the
		// monitor's invariants: corruption framing cannot catch.
		return nil, fmt.Errorf("snapshot %s: %w", path, &snapshot.CorruptError{Section: "state", Reason: err.Error()})
	}
	return m, nil
}

// setAside handles a checkpoint that failed to load with err. One whose
// content was rejected — corrupt, or not a snapshot at all — is renamed
// to <name>.fsnap.corrupt beside it, kept for the operator,
// logged and counted, and startup goes on without that tenant. Any other
// failure fails startup: an unknown format version is a deployment
// error, and renaming would strand a good file after a rollback.
func (s *Server) setAside(name, path string, err error) error {
	var corrupt *snapshot.CorruptError
	if !errors.As(err, &corrupt) && !errors.Is(err, snapshot.ErrBadMagic) {
		return fmt.Errorf("serve: restore tenant %q: %w", name, err)
	}
	if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
		return fmt.Errorf("serve: set aside unreadable checkpoint: %w", rerr)
	}
	s.cfg.Obs.Counter("fenrir_snapshot_unreadable_total").Inc()
	s.cfg.Obs.Logger().Error("unreadable checkpoint set aside",
		"tenant", name, "file", path+".corrupt", "error", err.Error())
	return nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// tenant returns the named tenant, or nil.
func (s *Server) tenant(name string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// insert creates a tenant. It checks the draining flag under mu, which
// Drain holds to set the flag and capture the table, so a create either
// lands before the capture (and is stopped and checkpointed by Drain) or
// fails with errDraining: it can never leave a running,
// never-checkpointed tenant behind.
func (s *Server) insert(name string, mon *core.Monitor) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, errDraining
	}
	if _, ok := s.tenants[name]; ok {
		return nil, errExists
	}
	t := newTenant(name, mon, s)
	s.tenants[name] = t
	return t, nil
}

// tenantNames returns all tenant names, sorted for stable listings.
func (s *Server) tenantNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

func (s *Server) setTenantGauge() {
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	s.met.tenants.Set(float64(n))
}

// addPending tracks the daemon-wide admitted-but-unappended backlog.
func (s *Server) addPending(delta int64) {
	s.met.pending.Set(float64(s.pending.Add(delta)))
}

// Drain stops accepting observations, waits for every tenant's queue to
// empty, and writes a final checkpoint per tenant, drainLanes tenants at
// a time, recording its wall time. Call it on SIGTERM before shutting
// the HTTP server down; afterwards queries still work but ingest and
// creates return 503.
func (s *Server) Drain() error {
	// Set the flag and capture the table under mu. insert checks the flag
	// under mu, so no create lands after the capture.
	s.mu.Lock()
	s.draining.Store(true)
	queue := make(chan *tenant, len(s.tenants)) // holds every tenant, so filling it never blocks
	for _, t := range s.tenants {
		queue <- t
	}
	s.mu.Unlock()
	close(queue)
	t0 := time.Now()
	lanes := min(drainLanes, len(queue))
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for t := range queue {
				// stop drains the queue and parks the worker, so the final
				// checkpoint below covers every accepted observation.
				t.stop()
				if s.cfg.SnapshotDir == "" {
					continue
				}
				if _, err := t.checkpoint(); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	d := time.Since(t0)
	s.drainNanos.Store(d.Nanoseconds())
	s.met.drainSeconds.Set(d.Seconds())
	// Stop the sampler last: its final tick captures the drained state
	// (drain gauge, final checkpoint counters) in the rings and gives
	// every alert rule one last evaluation before the manifest is cut.
	s.hist.Stop()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// isDraining reports whether Drain has begun.
func (s *Server) isDraining() bool {
	return s.draining.Load()
}
