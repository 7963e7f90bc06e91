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
// Tenants are partitioned across S in-process shards (Config.Shards,
// `fenrir -shards`), placed on create by consistent hash of the tenant
// name. One table maps each tenant name to its tenant, and a tenant's
// shard is its placement. Each shard owns a snapshot subdirectory
// (<dir>/shard-<k>/) and its gauges, and SIGTERM drains all shards in
// parallel. POST /v1/admin/rebalance moves a tenant between shards by
// handing its monitor to a tenant on the target shard — flush,
// checkpoint into the target's subdirectory, swap the table entry — so
// it answers byte-identically to never having moved.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
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
// checkpoints, one shard, default queue depth, no instrumentation, no
// faults.
type Config struct {
	// SnapshotDir is where tenant checkpoints live ("" disables
	// checkpointing). Checkpoints are laid out per shard as
	// <dir>/shard-<k>/<name>.fsnap; on startup every checkpoint found
	// there is restored as a tenant on the shard whose subdirectory
	// holds it, which is how both a warm restart and a rebalanced
	// placement resume exactly where the previous process stopped.
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
	// Shards is the number of shards tenants are placed across by
	// consistent hash (jump hash over the tenant name); <= 0 means 1.
	// A shard is where a tenant lives, not a worker or a lock: a
	// snapshot subdirectory and one lane of the parallel drain.
	Shards int
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
	// overflow. Shard-labeled rollup series are never governed, so
	// shard-level SLOs stay exact at any tenant count. <= 0 disables.
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

func (c Config) shardCount() int {
	if c.Shards <= 0 {
		return 1
	}
	return c.Shards
}

// Server hosts named monitor tenants across a set of shards. Create
// with New, mount Handler on an http.Server, and call Drain before
// exit.
type Server struct {
	cfg Config
	mux *http.ServeMux

	shards []*shard

	// mu guards tenants, the one table of hosted tenants. A tenant's sh
	// is its placement: its hash-home shard on create, the shard whose
	// directory held its checkpoint on restore, the target of its last
	// rebalance. Drain sets draining under mu, so an insert either lands
	// before Drain captures the table or fails with errDraining.
	mu       sync.RWMutex
	tenants  map[string]*tenant
	draining atomic.Bool

	// hist is the telemetry history store (nil unless HistoryEvery > 0);
	// its sampler goroutine starts in New and stops in Drain.
	hist *history.Store

	// met holds the daemon-wide ingest and checkpoint metric handles,
	// resolved once in New (nil-safe no-ops without a registry).
	met serverMetrics

	// rebalanceMu serializes admin rebalances so two concurrent moves
	// cannot fight over one tenant.
	rebalanceMu sync.Mutex
}

// serverMetrics are the daemon-wide handles the ingest and checkpoint
// paths feed.
type serverMetrics struct {
	ingestRequests, ingested, ingestRejected *obs.Counter
	snapWrites, snapErrors, rebalances       *obs.Counter
	ingestSeconds, snapSeconds               *obs.Histogram
	// rejected holds fenrir_serve_rejected_total{reason} per reason.
	rejected map[string]*obs.Counter
}

// rejectReasons are the reason label values of
// fenrir_serve_rejected_total: "append" counts observations the tenant
// worker failed to append, the others ingest requests (or, for
// "duplicate", a fault-duplicated copy) turned away at admission.
var rejectReasons = []string{"append", "draining", "read", "dropped", "malformed", "backpressure", "duplicate", "order"}

// New builds a server and, when cfg.SnapshotDir is set, warm-restarts
// every tenant checkpointed there onto the shard whose subdirectory
// holds its snapshot.
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
		rebalances:     cfg.Obs.Counter("fenrir_serve_rebalances_total"),
		ingestSeconds:  cfg.Obs.Histogram("fenrir_serve_ingest_seconds"),
		snapSeconds:    cfg.Obs.Histogram("fenrir_snapshot_seconds"),
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
	s.shards = make([]*shard, cfg.shardCount())
	for k := range s.shards {
		s.shards[k] = newShard(k, s)
	}
	if cfg.SnapshotDir != "" {
		for _, sh := range s.shards {
			if err := os.MkdirAll(sh.dir(), 0o755); err != nil {
				return nil, fmt.Errorf("serve: snapshot dir: %w", err)
			}
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

// homeShard is the consistent-hash placement for a tenant name.
func (s *Server) homeShard(name string) int {
	return jumpHash(hashTenant(name), len(s.shards))
}

// restoreAll loads every checkpoint in SnapshotDir: each shard-<k>/
// subdirectory is scanned and its tenants restored in place — a tenant
// checkpointed on shard k (including one rebalanced there) comes back on
// shard k. Orphaned checkpoint temp files are removed on the way, and
// unreadable checkpoints are set aside (see setAside). New calls it
// before the server is shared, so the table is written without mu.
func (s *Server) restoreAll() error {
	orphans := s.cfg.Obs.Counter("fenrir_snapshot_orphans_removed_total")
	for _, sh := range s.shards {
		files, err := os.ReadDir(sh.dir())
		if err != nil {
			return fmt.Errorf("serve: scan shard dir: %w", err)
		}
		for _, e := range files {
			if e.IsDir() {
				continue
			}
			if !strings.HasSuffix(e.Name(), snapSuffix) {
				if strings.Contains(e.Name(), snapSuffix+".tmp-") {
					// A checkpoint's temp file (<name>.fsnap.tmp-*): the
					// process died between creating it and renaming it
					// into place, so its deferred remove never ran.
					if err := os.Remove(filepath.Join(sh.dir(), e.Name())); err != nil {
						return fmt.Errorf("serve: remove orphaned checkpoint: %w", err)
					}
					orphans.Inc()
					s.cfg.Obs.Logger().Warn("orphaned checkpoint temp file removed",
						"shard", sh.id, "file", e.Name())
				}
				continue
			}
			name := strings.TrimSuffix(e.Name(), snapSuffix)
			path := filepath.Join(sh.dir(), e.Name())
			if prev := s.tenants[name]; prev != nil {
				// The same tenant exists in two shard directories: a crash
				// landed between a rebalance writing the target snapshot and
				// removing the source one. Both copies held identical bytes
				// when written; keep the one with more accepted appends (the
				// tie goes to the copy already restored) and heal the
				// directory by deleting the other file.
				if err := s.resolveDuplicate(prev, sh, name, path); err != nil {
					return err
				}
				continue
			}
			mon, err := s.loadMonitor(path)
			if err != nil {
				if err := s.setAside(sh, name, path, err); err != nil {
					return err
				}
				continue
			}
			s.tenants[name] = newTenant(name, mon, sh)
		}
	}
	return nil
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
// to <name>.fsnap.corrupt in its shard directory, kept for the operator,
// logged and counted, and startup goes on without that tenant. Any other
// failure fails startup: an unknown format version is a deployment
// error, and renaming would strand a good file after a rollback.
func (s *Server) setAside(sh *shard, name, path string, err error) error {
	var corrupt *snapshot.CorruptError
	if !errors.As(err, &corrupt) && !errors.Is(err, snapshot.ErrBadMagic) {
		return fmt.Errorf("serve: restore tenant %q: %w", name, err)
	}
	if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
		return fmt.Errorf("serve: set aside unreadable checkpoint: %w", rerr)
	}
	s.cfg.Obs.Counter("fenrir_snapshot_unreadable_total").Inc()
	s.cfg.Obs.Logger().Error("unreadable checkpoint set aside",
		"tenant", name, "shard", sh.id, "file", filepath.Base(path)+".corrupt", "error", err.Error())
	return nil
}

// resolveDuplicate handles a tenant found in a second shard directory
// after a crash mid-rebalance: the copy with more accepted appends wins
// (ties keep the already-restored one) and the loser's file is removed.
// An unreadable second copy is set aside like any other.
func (s *Server) resolveDuplicate(prev *tenant, sh *shard, name, path string) error {
	mon, err := s.loadMonitor(path)
	if err != nil {
		return s.setAside(sh, name, path, err)
	}
	if mon.Snapshot().Appends <= prev.mon.Snapshot().Appends {
		s.cfg.Obs.Logger().Warn("duplicate tenant snapshot discarded",
			"tenant", name, "shard", sh.id, "kept_shard", prev.sh.id)
		return os.Remove(path)
	}
	// The later copy wins: re-home the tenant onto this shard.
	prev.stop()
	s.tenants[name] = newTenant(name, mon, sh)
	s.cfg.Obs.Logger().Warn("duplicate tenant snapshot resolved",
		"tenant", name, "kept_shard", sh.id)
	return os.Remove(prev.snapshotPath())
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// tenant returns the named tenant, or nil.
func (s *Server) tenant(name string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// insert creates a tenant on its hash-home shard. It checks the
// draining flag under mu, which Drain holds to set the flag and capture
// the table, so a create either lands before the capture (and is
// stopped and checkpointed by Drain) or fails with errDraining: it can
// never leave a running, never-checkpointed tenant behind.
func (s *Server) insert(name string, mon *core.Monitor) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, errDraining
	}
	if _, ok := s.tenants[name]; ok {
		return nil, errExists
	}
	t := newTenant(name, mon, s.shards[s.homeShard(name)])
	s.tenants[name] = t
	return t, nil
}

// place points the table entry for t's name at t.
func (s *Server) place(t *tenant) {
	s.mu.Lock()
	s.tenants[t.name] = t
	s.mu.Unlock()
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

// shardCounts returns how many tenants each shard hosts.
func (s *Server) shardCounts() []int {
	counts := make([]int, len(s.shards))
	s.mu.RLock()
	for _, t := range s.tenants {
		counts[t.sh.id]++
	}
	s.mu.RUnlock()
	return counts
}

func (s *Server) setTenantGauge() {
	total := 0
	for k, n := range s.shardCounts() {
		s.shards[k].tenantGauge.Set(float64(n))
		total += n
	}
	s.cfg.Obs.Gauge("fenrir_serve_tenants").Set(float64(total))
}

// Drain stops accepting observations, waits for every tenant's queue to
// empty, and writes a final checkpoint per tenant — all shards in
// parallel, each recording its drain wall time. Call it on SIGTERM
// before shutting the HTTP server down; afterwards queries still work
// but ingest and creates return 503.
func (s *Server) Drain() error {
	// Set the flag and capture the table under rebalanceMu and then mu.
	// A rebalance holds rebalanceMu for its whole duration, so no move
	// is in flight and every later move sees isDraining and refuses;
	// without this a move could run concurrently with shard drains and
	// scatter a tenant's checkpoint across two shard directories. insert
	// checks the flag under mu, so no create lands after the capture.
	s.rebalanceMu.Lock()
	s.mu.Lock()
	s.draining.Store(true)
	byShard := make([][]*tenant, len(s.shards))
	for _, t := range s.tenants {
		byShard[t.sh.id] = append(byShard[t.sh.id], t)
	}
	s.mu.Unlock()
	s.rebalanceMu.Unlock()
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = sh.drain(byShard[i])
		}(i, sh)
	}
	wg.Wait()
	// Stop the sampler last: its final tick captures the drained state
	// (drain gauges, final checkpoint counters) in the rings and gives
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
