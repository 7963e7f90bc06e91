package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"fenrir/internal/snapshot"
)

// rebalanceRequest is the POST /v1/admin/rebalance body: move a tenant
// onto an explicit shard, overriding its hash-home placement.
type rebalanceRequest struct {
	Tenant string `json:"tenant"`
	Shard  int    `json:"shard"`
}

// handleRebalance moves a tenant between shards: flush and park the
// source worker, checkpoint into the target shard's directory when
// checkpointing is on, hand the monitor to the target shard, flip
// placement. The moved tenant answers every query byte-identically to
// one that never moved, because the target serves the same monitor.
// Moves serialize on rebalanceMu so two admins cannot fight over one
// tenant.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var req rebalanceRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "parse rebalance request: %v", err)
		return
	}
	if req.Shard < 0 || req.Shard >= len(s.shards) {
		writeErr(w, http.StatusBadRequest, "shard %d outside [0,%d)", req.Shard, len(s.shards))
		return
	}
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	src := s.shardFor(req.Tenant)
	t := src.tenant(req.Tenant)
	if t == nil {
		writeErr(w, http.StatusNotFound, "unknown tenant %q", req.Tenant)
		return
	}
	dst := s.shards[req.Shard]
	if dst == src {
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant": req.Tenant, "shard": src.id, "moved": false,
		})
		return
	}
	if err := s.moveTenant(t, src, dst); err != nil {
		if errors.Is(err, errDraining) {
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		writeErr(w, http.StatusInternalServerError, "rebalance %q: %v", req.Tenant, err)
		return
	}
	s.met.rebalances.Inc()
	s.setTenantGauge()
	s.cfg.Obs.Logger().Info("tenant rebalanced",
		"tenant", req.Tenant, "from_shard", src.id, "to_shard", dst.id)
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant": req.Tenant, "from": src.id, "to": dst.id, "moved": true,
	})
}

// moveTenant relocates one tenant from src to dst by handing its
// monitor over: dst serves the very *core.Monitor src did, so every
// query answers as if the tenant never moved. The worker is parked
// first, so the move covers every accepted observation; queries keep
// answering from the parked source tenant until the placement flips.
// With a snapshot dir the state is checkpointed into dst's subdirectory,
// its directory synced, before the source file is removed, so a crash
// or power loss anywhere in between leaves at most a duplicate that
// restoreAll heals, never no checkpoint.
func (s *Server) moveTenant(t *tenant, src, dst *shard) error {
	t.flush()
	t.stop()
	var dstPath string
	if s.cfg.SnapshotDir != "" {
		dstPath = filepath.Join(dst.dir(), t.name+snapSuffix)
		if _, err := snapshot.SaveMonitor(dstPath, t.mon.State()); err != nil {
			s.met.snapErrors.Inc()
			// The move never happened: revive the tenant in place on src
			// with a fresh worker around the untouched monitor.
			src.mu.Lock()
			src.tenants[t.name] = newTenant(t.name, t.mon, src)
			src.mu.Unlock()
			return fmt.Errorf("snapshot to target shard: %w", err)
		}
		s.met.snapWrites.Inc()
	}
	if _, err := dst.insert(t.name, t.mon); err != nil {
		// dst began draining mid-move. Leave the parked tenant on src —
		// src's own drain stops it again (a no-op) and checkpoints it
		// there — and discard the target snapshot.
		if dstPath != "" {
			os.Remove(dstPath)
		}
		return err
	}
	s.setPlacement(t.name, dst.id)
	src.remove(t.name)
	if s.cfg.SnapshotDir != "" {
		if err := os.Remove(filepath.Join(src.dir(), t.name+snapSuffix)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("remove source snapshot: %w", err)
		}
	}
	return nil
}
