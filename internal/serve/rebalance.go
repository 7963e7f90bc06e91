package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
)

// rebalanceRequest is the POST /v1/admin/rebalance body: move a tenant
// onto an explicit shard, overriding its hash-home placement.
type rebalanceRequest struct {
	Tenant string `json:"tenant"`
	Shard  int    `json:"shard"`
}

// handleRebalance moves a tenant between shards: flush and park the
// source worker, hand the monitor to a tenant on the target shard,
// checkpoint it into the target shard's directory when checkpointing
// is on, and swap the table entry. The moved tenant answers every query
// byte-identically to one that never moved, because the target serves
// the same monitor. Moves serialize on rebalanceMu so two admins cannot
// fight over one tenant.
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
	t := s.tenant(req.Tenant)
	if t == nil {
		writeErr(w, http.StatusNotFound, "unknown tenant %q", req.Tenant)
		return
	}
	src, dst := t.sh, s.shards[req.Shard]
	if dst == src {
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant": req.Tenant, "shard": src.id, "moved": false,
		})
		return
	}
	if err := s.moveTenant(t, dst); err != nil {
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

// moveTenant relocates t onto dst by handing its monitor over: the
// tenant on dst serves the very *core.Monitor t did, so every query
// answers as if the tenant never moved. t's worker is parked first, so
// the move covers every accepted observation; queries keep answering
// from the parked tenant until the table entry swaps. With a snapshot
// dir the new tenant checkpoints into dst's subdirectory, like any
// other checkpoint, before the source file is removed, so a crash or
// power loss anywhere in between leaves at most a duplicate that
// restoreAll heals, never no checkpoint. The caller holds rebalanceMu,
// so Drain cannot begin mid-move.
func (s *Server) moveTenant(t *tenant, dst *shard) error {
	t.flush()
	t.stop()
	moved := newTenant(t.name, t.mon, dst)
	if s.cfg.SnapshotDir != "" {
		if _, err := moved.checkpoint(); err != nil {
			// The move never happened: park the new worker and revive the
			// tenant in place on its source shard around the untouched
			// monitor.
			moved.stop()
			s.place(newTenant(t.name, t.mon, t.sh))
			return fmt.Errorf("snapshot to target shard: %w", err)
		}
	}
	s.place(moved)
	if s.cfg.SnapshotDir != "" {
		if err := os.Remove(t.snapshotPath()); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("remove source snapshot: %w", err)
		}
	}
	return nil
}
