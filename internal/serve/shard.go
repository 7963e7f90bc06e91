package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync/atomic"
	"time"

	"fenrir/internal/obs"
)

// Sentinel errors Server.insert returns; the API layer maps them to 503
// and 409.
var (
	errDraining = errors.New("serve: server is draining")
	errExists   = errors.New("serve: tenant already exists")
)

// shard is one in-process tenant partition: a snapshot subdirectory,
// one lane of the parallel drain, and the shard-labelled gauges and
// rollups. Which tenants a shard hosts is not kept here: a tenant's sh
// field is its placement, in the server's one tenant table. A tenant is
// placed on its hash-home shard (jumpHash below) when created; POST
// /v1/admin/rebalance moves it.
type shard struct {
	id  int
	srv *Server

	// pending aggregates admitted-but-not-yet-appended observations
	// across the shard's tenants, mirrored into pendingGauge so /status
	// and /metrics can show per-shard queue depth without walking every
	// tenant under its lock.
	pending atomic.Int64
	// drainNanos records the wall time of this shard's part of the last
	// Drain (0 until one runs); /status and the drain gauge surface it so
	// parallel-drain speedup is observable per shard.
	drainNanos atomic.Int64

	tenantGauge  *obs.Gauge
	pendingGauge *obs.Gauge
	drainGauge   *obs.Gauge

	// Shard-level rollup series (DESIGN.md §16): these carry a shard
	// label instead of a tenant label, so the cardinality governor never
	// touches them — shard-level SLOs stay exact even when per-tenant
	// series have collapsed into {tenant="__other__"}.
	ingestCount *obs.Counter
	admitHist   *obs.Histogram
}

func newShard(id int, s *Server) *shard {
	reg := s.cfg.Obs
	return &shard{
		id:  id,
		srv: s,

		tenantGauge:  reg.Gauge(fmt.Sprintf(`fenrir_serve_shard_tenants{shard="%d"}`, id)),
		pendingGauge: reg.Gauge(fmt.Sprintf(`fenrir_serve_shard_pending{shard="%d"}`, id)),
		drainGauge:   reg.Gauge(fmt.Sprintf(`fenrir_serve_shard_drain_seconds{shard="%d"}`, id)),
		ingestCount:  reg.Counter(fmt.Sprintf(`fenrir_serve_shard_ingest_total{shard="%d"}`, id)),
		admitHist:    reg.Histogram(fmt.Sprintf(`fenrir_serve_admission_seconds{shard="%d"}`, id)),
	}
}

// dir is the shard's snapshot subdirectory: <SnapshotDir>/shard-<id>.
func (sh *shard) dir() string {
	return filepath.Join(sh.srv.cfg.SnapshotDir, fmt.Sprintf("shard-%d", sh.id))
}

// drain stops the worker of every tenant in ts, the shard's tenants as
// Drain captured them, and writes each a final checkpoint. Shards
// drain in parallel with each other; within a shard tenants drain
// serially.
func (sh *shard) drain(ts []*tenant) error {
	t0 := time.Now()
	var firstErr error
	for _, t := range ts {
		// stop drains the queue and parks the worker, so the final
		// checkpoint below covers every accepted observation and races
		// with nothing.
		t.stop()
		if sh.srv.cfg.SnapshotDir == "" {
			continue
		}
		if _, err := t.checkpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d := time.Since(t0)
	sh.drainNanos.Store(d.Nanoseconds())
	sh.drainGauge.Set(d.Seconds())
	return firstErr
}

// addPending tracks the shard-wide admitted-but-unappended backlog.
func (sh *shard) addPending(delta int64) {
	sh.pendingGauge.Set(float64(sh.pending.Add(delta)))
}

// hashTenant is the placement hash: FNV-64a over the tenant name.
func hashTenant(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// jumpHash is Lamping & Veach's jump consistent hash: maps key to a
// bucket in [0, buckets) such that growing the bucket count moves only
// ~1/buckets of the keys, with no ring state to persist.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
