package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/obs"
	"fenrir/internal/snapshot"
)

// shardFor returns the shard hosting the named tenant, or the name's
// hash-home shard when no tenant has it.
func (s *Server) shardFor(name string) *shard {
	if t := s.tenant(name); t != nil {
		return t.sh
	}
	return s.shards[s.homeShard(name)]
}

// tenant returns the named tenant if sh hosts it, or nil.
func (sh *shard) tenant(name string) *tenant {
	if t := sh.srv.tenant(name); t != nil && t.sh == sh {
		return t
	}
	return nil
}

// jumpHash must be a valid consistent hash: in range, deterministic,
// and monotone — growing the bucket count only moves keys into the new
// bucket, never between old ones.
func TestJumpHashProperties(t *testing.T) {
	keys := make([]uint64, 0, 500)
	for i := 0; i < 500; i++ {
		keys = append(keys, hashTenant(fmt.Sprintf("tenant-%04d", i)))
	}
	for _, k := range keys {
		if got := jumpHash(k, 1); got != 0 {
			t.Fatalf("jumpHash(%d, 1) = %d, want 0", k, got)
		}
		for buckets := 2; buckets <= 8; buckets++ {
			a, b := jumpHash(k, buckets), jumpHash(k, buckets)
			if a != b {
				t.Fatalf("jumpHash not deterministic: %d vs %d", a, b)
			}
			if a < 0 || a >= buckets {
				t.Fatalf("jumpHash(%d, %d) = %d out of range", k, buckets, a)
			}
			prev := jumpHash(k, buckets-1)
			if a != prev && a != buckets-1 {
				t.Fatalf("growing %d->%d moved key between old buckets: %d -> %d",
					buckets-1, buckets, prev, a)
			}
		}
	}
	// The hash must actually spread: 500 tenants over 4 shards should
	// leave no shard empty.
	counts := make([]int, 4)
	for _, k := range keys {
		counts[jumpHash(k, 4)]++
	}
	for sh, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d got no tenants out of 500: %v", sh, counts)
		}
	}
}

// Placement surfaces: the tenant list, per-tenant status, and /status
// all agree on which shard each tenant lives on, and the per-shard
// tenant counts sum to the fleet total.
func TestShardPlacementSurfaces(t *testing.T) {
	s, ts := testServer(t, Config{Shards: 4, Obs: obs.NewRegistry()})
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("place-%02d", i)
		code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/"+name, defaultSpec(8))
		if code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, code, body)
		}
		var created struct {
			Shard int `json:"shard"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		if want := s.homeShard(name); created.Shard != want {
			t.Fatalf("create %s reported shard %d, home is %d", name, created.Shard, want)
		}
	}
	_, body := doReq(t, ts, http.MethodGet, "/v1/tenants", nil)
	var list struct {
		Tenants []struct {
			Name  string `json:"name"`
			Shard int    `json:"shard"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 12 {
		t.Fatalf("listed %d tenants, want 12", len(list.Tenants))
	}
	for _, e := range list.Tenants {
		if want := s.homeShard(e.Name); e.Shard != want {
			t.Fatalf("list says %s on shard %d, home is %d", e.Name, e.Shard, want)
		}
	}
	_, body = doReq(t, ts, http.MethodGet, "/status", nil)
	var status struct {
		Tenants int `json:"tenants"`
		Shards  []struct {
			Shard   int `json:"shard"`
			Tenants int `json:"tenants"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Shards) != 4 {
		t.Fatalf("/status reported %d shards, want 4", len(status.Shards))
	}
	sum := 0
	for _, e := range status.Shards {
		sum += e.Tenants
	}
	if sum != status.Tenants || sum != 12 {
		t.Fatalf("per-shard counts sum to %d, fleet total %d, want 12", sum, status.Tenants)
	}
}

// Regression for the create-vs-drain TOCTOU: handleCreateTenant used to
// check isDraining before taking the tenant-map lock, so a create racing
// Drain could insert a tenant after the drain snapshot of the tenant
// list — leaving it running and never checkpointed. Now the draining
// flag is re-checked under the shard lock: every 201 tenant must end up
// stopped with a checkpoint file in its shard directory, and every 503
// tenant must not exist at all.
func TestCreateDuringDrainRace(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Shards: 4, SnapshotDir: dir, Obs: obs.NewRegistry()})

	const creators = 48
	codes := make([]int, creators)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < creators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], _ = doReq(t, ts, http.MethodPut,
				fmt.Sprintf("/v1/tenants/race-%02d", i), defaultSpec(6))
		}(i)
	}
	drained := make(chan error, 1)
	go func() {
		<-start
		time.Sleep(200 * time.Microsecond) // let some creates land first
		drained <- s.Drain()
	}()
	close(start)
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	var created, refused int
	for i, code := range codes {
		name := fmt.Sprintf("race-%02d", i)
		sh := s.shardFor(name)
		switch code {
		case http.StatusCreated:
			created++
			tn := sh.tenant(name)
			if tn == nil {
				t.Fatalf("%s got 201 but is missing from shard %d", name, sh.id)
			}
			tn.mu.Lock()
			stopped := tn.stopped
			tn.mu.Unlock()
			if !stopped {
				t.Fatalf("%s got 201 but its worker survived the drain", name)
			}
			if _, err := os.Stat(filepath.Join(sh.dir(), name+snapSuffix)); err != nil {
				t.Fatalf("%s got 201 but drain left no checkpoint: %v", name, err)
			}
		case http.StatusServiceUnavailable:
			refused++
			if sh.tenant(name) != nil {
				t.Fatalf("%s got 503 but exists on shard %d", name, sh.id)
			}
		default:
			t.Fatalf("%s: unexpected status %d", name, code)
		}
	}
	t.Logf("created=%d refused=%d", created, refused)
}

// The guard behind TestCreateDuringDrainRace, without the race: Drain
// sets the draining flag and captures the tenant table under the lock
// insert checks the flag under, so an insert after the capture returns
// errDraining and leaves nothing behind: no table entry, and no tenant
// object, whose construction registers the tenant's series and starts
// its worker. The create handler checks isDraining before it inserts,
// so only a direct call reaches the guard every time.
func TestInsertAfterDrainRefused(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Shards: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	newMon := func() *core.Monitor {
		mon, err := monitorFromSpec(defaultSpec(6), 0)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	if _, err := s.insert("early", newMon()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	tn, err := s.insert("late", newMon())
	if !errors.Is(err, errDraining) || tn != nil {
		t.Fatalf("insert after Drain: tenant returned %v, error %v; want errDraining", tn != nil, err)
	}
	if names := s.tenantNames(); !slices.Equal(names, []string{"early"}) {
		t.Fatalf("tenants after a refused insert: %v, want [early]", names)
	}
	var exposition strings.Builder
	reg.WritePrometheus(&exposition)
	if strings.Contains(exposition.String(), `tenant="late"`) {
		t.Fatal("the refused insert built a tenant: its series are registered")
	}
}

// A checkpoint written without a window frame (or with window 0) must
// come back bounded when the daemon restarts under -window, exactly like
// a freshly created windowed tenant that saw the same stream.
func TestRestoreAppliesDefaultWindow(t *testing.T) {
	const W, total = 16, 40
	nets := specNets(30)
	dir := t.TempDir()

	// Era 1: unbounded daemon, no default window. The checkpoint carries
	// Window = 0.
	s1, ts1 := testServer(t, Config{SnapshotDir: dir})
	if code, _ := doReq(t, ts1, http.MethodPut, "/v1/tenants/bgp", defaultSpec(30)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts1, "bgp", nets, 0, total, total/2)
	waitHistory(t, ts1, "bgp", total)
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	// Era 2: same snapshot dir, restarted with a default window.
	_, ts2 := testServer(t, Config{SnapshotDir: dir, DefaultWindow: W})
	_, body := doReq(t, ts2, http.MethodGet, "/v1/tenants/bgp", nil)
	var st struct {
		History   int    `json:"history"`
		Window    int    `json:"window"`
		Evictions uint64 `json:"evictions"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Window != W || st.History != W {
		t.Fatalf("restored tenant: window=%d history=%d, want both %d", st.Window, st.History, W)
	}
	if want := uint64(total - W); st.Evictions != want {
		t.Fatalf("restored tenant: evictions=%d, want %d", st.Evictions, want)
	}
	got := deterministicQueries(t, ts2, "bgp")

	// Control: a windowed tenant that saw the identical stream from birth.
	_, ts3 := testServer(t, Config{DefaultWindow: W})
	if code, _ := doReq(t, ts3, http.MethodPut, "/v1/tenants/bgp", defaultSpec(30)); code != http.StatusCreated {
		t.Fatal("control create failed")
	}
	mustIngest(t, ts3, "bgp", nets, 0, total, total/2)
	waitAppends(t, ts3, "bgp", total)
	want := deterministicQueries(t, ts3, "bgp")
	for path, w := range want {
		if got[path] != w {
			t.Fatalf("restored-under-window differs from fresh windowed at %s:\n got: %s\nwant: %s",
				path, got[path], w)
		}
	}
}

// captureAll snapshots the deterministic query surface plus per-tenant
// status history/appends for one tenant.
func rebalanceTarget(s *Server, name string) int {
	return (s.shardFor(name).id + 1) % len(s.shards)
}

// Rebalance with a snapshot dir: the tenant's state is checkpointed
// into the target shard's subdirectory, the source file disappears, the
// target serves the same monitor, and every deterministic query answers
// byte-identically across the move. Ingest keeps working afterwards,
// with continuity of the epoch cursor.
func TestRebalanceByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Shards: 4, SnapshotDir: dir, Obs: obs.NewRegistry()})
	nets := specNets(40)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/bgp", defaultSpec(40)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "bgp", nets, 0, 24, 12)
	waitHistory(t, ts, "bgp", 24)
	want := deterministicQueries(t, ts, "bgp")

	mon := s.tenant("bgp").mon
	src := s.shardFor("bgp")
	target := rebalanceTarget(s, "bgp")
	code, body := doReq(t, ts, http.MethodPost, "/v1/admin/rebalance",
		map[string]any{"tenant": "bgp", "shard": target})
	if code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", code, body)
	}
	var moved struct {
		From  int  `json:"from"`
		To    int  `json:"to"`
		Moved bool `json:"moved"`
	}
	if err := json.Unmarshal(body, &moved); err != nil {
		t.Fatal(err)
	}
	if !moved.Moved || moved.From != src.id || moved.To != target {
		t.Fatalf("rebalance reported %+v, want moved %d -> %d", moved, src.id, target)
	}
	if s.shardFor("bgp").id != target {
		t.Fatalf("placement still resolves to shard %d, want %d", s.shardFor("bgp").id, target)
	}
	if s.tenant("bgp").mon != mon {
		t.Fatal("the target shard serves a different monitor than the source did")
	}
	if _, err := os.Stat(filepath.Join(s.shards[target].dir(), "bgp"+snapSuffix)); err != nil {
		t.Fatalf("no snapshot in target shard dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(src.dir(), "bgp"+snapSuffix)); !os.IsNotExist(err) {
		t.Fatalf("source shard dir still holds the snapshot: %v", err)
	}
	got := deterministicQueries(t, ts, "bgp")
	for path, w := range want {
		if got[path] != w {
			t.Fatalf("query %s changed across rebalance:\n got: %s\nwant: %s", path, got[path], w)
		}
	}

	// The moved tenant keeps ingesting where it left off, and a replayed
	// epoch still bounces.
	mustIngest(t, ts, "bgp", nets, 24, 36, 12)
	waitHistory(t, ts, "bgp", 36)
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/tenants/bgp/observations", observation(nets, 10, 12)); code != http.StatusBadRequest {
		t.Fatalf("replayed epoch got %d, want 400", code)
	}

	// Moving a tenant onto the shard it already occupies is a no-op.
	code, body = doReq(t, ts, http.MethodPost, "/v1/admin/rebalance",
		map[string]any{"tenant": "bgp", "shard": target})
	if code != http.StatusOK {
		t.Fatalf("same-shard rebalance: %d %s", code, body)
	}
	var noop struct {
		Moved bool `json:"moved"`
	}
	if err := json.Unmarshal(body, &noop); err != nil {
		t.Fatal(err)
	}
	if noop.Moved {
		t.Fatal("same-shard rebalance claimed to move")
	}

	// Error paths: unknown tenant and out-of-range shard.
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/admin/rebalance",
		map[string]any{"tenant": "nope", "shard": 0}); code != http.StatusNotFound {
		t.Fatalf("unknown tenant rebalance got %d, want 404", code)
	}
	if code, _ := doReq(t, ts, http.MethodPost, "/v1/admin/rebalance",
		map[string]any{"tenant": "bgp", "shard": 99}); code != http.StatusBadRequest {
		t.Fatalf("bad shard rebalance got %d, want 400", code)
	}
}

// A rebalance's checkpoint is accounted like any other: the tenant's
// size gauge reads the target file's size, the write lands once in the
// daemon-wide and per-tenant checkpoint histograms, and the flight
// recorder logs it. SnapshotEvery exceeds the stream, so the move's
// write is the tenant's first checkpoint.
func TestRebalanceCheckpointAccounted(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{Shards: 4, SnapshotDir: t.TempDir(), SnapshotEvery: 1 << 20, Obs: reg})
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/acct", defaultSpec(20)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "acct", specNets(20), 0, 12, 6)
	waitHistory(t, ts, "acct", 12)
	target := rebalanceTarget(s, "acct")
	if code, body := doReq(t, ts, http.MethodPost, "/v1/admin/rebalance",
		map[string]any{"tenant": "acct", "shard": target}); code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", code, body)
	}
	fi, err := os.Stat(filepath.Join(s.shards[target].dir(), "acct"+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(`fenrir_snapshot_bytes{tenant="acct"}`).Value(); got != float64(fi.Size()) {
		t.Errorf("fenrir_snapshot_bytes = %v, target file holds %d bytes", got, fi.Size())
	}
	for _, name := range []string{
		"fenrir_snapshot_seconds",
		`fenrir_serve_checkpoint_seconds{tenant="acct"}`,
		`fenrir_serve_checkpoint_bytes{tenant="acct"}`,
	} {
		if got := reg.Histogram(name).Count(); got != 1 {
			t.Errorf("%s count = %d, want 1", name, got)
		}
	}
	if got := reg.Counter("fenrir_snapshot_writes_total").Value(); got != 1 {
		t.Errorf("fenrir_snapshot_writes_total = %d, want 1", got)
	}
	logged := 0
	for _, e := range reg.Events(0) {
		if e.Msg == "checkpoint written" {
			logged++
		}
	}
	if logged != 1 {
		t.Errorf("%d checkpoints logged, want 1", logged)
	}
}

// A move whose target checkpoint fails never happens: the rebalance
// answers 500, the failure is counted, and the tenant stays on its
// source shard with a live worker and its source checkpoint.
func TestRebalanceCheckpointFailureKeepsTenant(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{Shards: 4, SnapshotDir: t.TempDir(), Obs: reg})
	nets := specNets(20)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/stay", defaultSpec(20)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "stay", nets, 0, 8, 4)
	waitHistory(t, ts, "stay", 8)
	if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/stay/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	src := s.shardFor("stay")
	dst := s.shards[rebalanceTarget(s, "stay")]
	// A file where the target's directory should be fails its checkpoint.
	if err := os.RemoveAll(dst.dir()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst.dir(), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := doReq(t, ts, http.MethodPost, "/v1/admin/rebalance",
		map[string]any{"tenant": "stay", "shard": dst.id}); code != http.StatusInternalServerError {
		t.Fatalf("rebalance onto a broken shard dir: %d %s, want 500", code, body)
	}
	if got := reg.Counter("fenrir_snapshot_errors_total").Value(); got != 1 {
		t.Fatalf("fenrir_snapshot_errors_total = %d, want 1", got)
	}
	if got := s.shardFor("stay"); got != src {
		t.Fatalf("tenant on shard %d after a failed move, want %d", got.id, src.id)
	}
	if _, err := os.Stat(filepath.Join(src.dir(), "stay"+snapSuffix)); err != nil {
		t.Fatalf("source checkpoint: %v", err)
	}
	mustIngest(t, ts, "stay", nets, 8, 12, 4)
	waitHistory(t, ts, "stay", 12)
}

// Rebalance on a memory-only daemon writes no file: the target shard
// takes over the same monitor, with the same byte-identity guarantee.
func TestRebalanceInMemory(t *testing.T) {
	s, ts := testServer(t, Config{Shards: 3, Obs: obs.NewRegistry()})
	nets := specNets(25)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/mem", defaultSpec(25)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "mem", nets, 0, 20, 10)
	waitHistory(t, ts, "mem", 20)
	want := deterministicQueries(t, ts, "mem")
	mon := s.tenant("mem").mon
	target := rebalanceTarget(s, "mem")
	code, body := doReq(t, ts, http.MethodPost, "/v1/admin/rebalance",
		map[string]any{"tenant": "mem", "shard": target})
	if code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", code, body)
	}
	if s.shardFor("mem").id != target {
		t.Fatal("placement did not flip")
	}
	if s.tenant("mem").mon != mon {
		t.Fatal("the target shard serves a different monitor than the source did")
	}
	got := deterministicQueries(t, ts, "mem")
	for path, w := range want {
		if got[path] != w {
			t.Fatalf("query %s changed across in-memory rebalance", path)
		}
	}
	mustIngest(t, ts, "mem", nets, 20, 28, 10)
	waitHistory(t, ts, "mem", 28)
}

// A rebalanced tenant restarts onto the shard holding its snapshot, not
// its hash-home shard, and the placement override is rebuilt.
func TestRebalanceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	nets := specNets(30)
	s1, ts1 := testServer(t, Config{Shards: 4, SnapshotDir: dir, Obs: obs.NewRegistry()})
	if code, _ := doReq(t, ts1, http.MethodPut, "/v1/tenants/roam", defaultSpec(30)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts1, "roam", nets, 0, 18, 9)
	waitHistory(t, ts1, "roam", 18)
	target := rebalanceTarget(s1, "roam")
	if code, body := doReq(t, ts1, http.MethodPost, "/v1/admin/rebalance",
		map[string]any{"tenant": "roam", "shard": target}); code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", code, body)
	}
	want := deterministicQueries(t, ts1, "roam")
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := testServer(t, Config{Shards: 4, SnapshotDir: dir, Obs: obs.NewRegistry()})
	if got := s2.shardFor("roam").id; got != target {
		t.Fatalf("restarted tenant on shard %d, want rebalanced shard %d", got, target)
	}
	got := deterministicQueries(t, ts2, "roam")
	for path, w := range want {
		if got[path] != w {
			t.Fatalf("query %s changed across rebalance+restart", path)
		}
	}
}

// Crash-mid-rebalance healing: if the same tenant's snapshot exists in
// two shard directories (the crash landed between writing the target
// copy and removing the source), restart keeps the copy with more
// appends and deletes the other file.
func TestDuplicateSnapshotResolved(t *testing.T) {
	dir := t.TempDir()
	nets := specNets(20)

	// Build two checkpoints of one tenant at different progress points by
	// running a throwaway daemon twice.
	mkState := func(upto int) []byte {
		t.Helper()
		tmp := t.TempDir()
		s, ts := testServer(t, Config{SnapshotDir: tmp})
		if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/dup", defaultSpec(20)); code != http.StatusCreated {
			t.Fatal("create failed")
		}
		mustIngest(t, ts, "dup", nets, 0, upto, 8)
		waitHistory(t, ts, "dup", upto)
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(s.shardFor("dup").dir(), "dup"+snapSuffix))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	older, newer := mkState(10), mkState(16)

	// Plant the older copy on shard 0 and the newer on shard 3.
	for sh, raw := range map[int][]byte{0: older, 3: newer} {
		d := filepath.Join(dir, fmt.Sprintf("shard-%d", sh))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "dup"+snapSuffix), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := testServer(t, Config{Shards: 4, SnapshotDir: dir, Obs: obs.NewRegistry()})
	if got := s.shardFor("dup").id; got != 3 {
		t.Fatalf("survivor on shard %d, want 3 (the copy with more appends)", got)
	}
	_, body := doReq(t, ts, http.MethodGet, "/v1/tenants/dup", nil)
	var st struct {
		History int `json:"history"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.History != 16 {
		t.Fatalf("survivor history %d, want 16", st.History)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0", "dup"+snapSuffix)); !os.IsNotExist(err) {
		t.Fatalf("losing duplicate still on disk: %v", err)
	}
}

// A checkpoint cut short between its temp file's creation and the
// rename leaves <name>.fsnap.tmp-* behind. Startup removes such orphans,
// logs and counts each one, and leaves every other file alone.
func TestRestoreRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	nets := specNets(20)
	s1, ts1 := testServer(t, Config{SnapshotDir: dir})
	if code, _ := doReq(t, ts1, http.MethodPut, "/v1/tenants/keep", defaultSpec(20)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts1, "keep", nets, 0, 6, 3)
	waitHistory(t, ts1, "keep", 6)
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	shard0 := filepath.Join(dir, "shard-0")
	orphans := []string{"keep" + snapSuffix + ".tmp-123", "gone" + snapSuffix + ".tmp-456"}
	for _, name := range append(orphans, "notes.txt") {
		if err := os.WriteFile(filepath.Join(shard0, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{SnapshotDir: dir, Obs: reg})
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(shard0, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s still on disk: %v", name, err)
		}
	}
	if got := reg.Counter("fenrir_snapshot_orphans_removed_total").Value(); got != 2 {
		t.Fatalf("orphans removed counter = %d, want 2", got)
	}
	logged := 0
	for _, e := range reg.Events(0) {
		if e.Msg == "orphaned checkpoint temp file removed" {
			logged++
		}
	}
	if logged != 2 {
		t.Fatalf("%d orphan removals logged, want 2", logged)
	}
	if _, err := os.Stat(filepath.Join(shard0, "notes.txt")); err != nil {
		t.Fatalf("unrelated file touched: %v", err)
	}
	_, body := doReq(t, ts, http.MethodGet, "/v1/tenants/keep", nil)
	var st struct {
		History int `json:"history"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.History != 6 {
		t.Fatalf("restored history %d, want 6", st.History)
	}
}

// A checkpoint whose content is rejected — a flipped payload byte, a
// file that is not a snapshot — is renamed to <name>.fsnap.corrupt,
// logged at Error level and counted, and the other tenants start. An
// unknown format version still fails startup.
func TestRestoreSetsAsideUnreadableCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := testServer(t, Config{SnapshotDir: dir})
	if code, _ := doReq(t, ts1, http.MethodPut, "/v1/tenants/keep", defaultSpec(20)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts1, "keep", specNets(20), 0, 6, 3)
	waitHistory(t, ts1, "keep", 6)
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	shard0 := filepath.Join(dir, "shard-0")
	raw, err := os.ReadFile(filepath.Join(shard0, "keep"+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[8+3+4+1] ^= 0xff // the first frame's second payload byte
	badMagic := append([]byte(nil), raw...)
	badMagic[0] ^= 0xff
	bad := map[string][]byte{"flipped": flipped, "magic": badMagic}
	for name, b := range bad {
		if err := os.WriteFile(filepath.Join(shard0, name+snapSuffix), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	s2, ts := testServer(t, Config{SnapshotDir: dir, Obs: reg})
	if code, _ := doReq(t, ts, http.MethodGet, "/v1/tenants/keep", nil); code != http.StatusOK {
		t.Fatalf("valid tenant answered %d", code)
	}
	if names := s2.tenantNames(); len(names) != 1 {
		t.Fatalf("tenants %v, want only keep", names)
	}
	for name := range bad {
		path := filepath.Join(shard0, name+snapSuffix)
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s still on disk: %v", path, err)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Errorf("%s not set aside: %v", name, err)
		}
	}
	if got := reg.Counter("fenrir_snapshot_unreadable_total").Value(); got != 2 {
		t.Fatalf("unreadable counter = %d, want 2", got)
	}
	logged := 0
	for _, e := range reg.Events(0) {
		if e.Msg == "unreadable checkpoint set aside" && e.Level == "ERROR" {
			logged++
		}
	}
	if logged != 2 {
		t.Fatalf("%d set-asides logged at Error, want 2", logged)
	}
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}

	// The set-aside files are not checkpoints: a restart ignores them.
	reg = obs.NewRegistry()
	s3, _ := testServer(t, Config{SnapshotDir: dir, Obs: reg})
	if names := s3.tenantNames(); len(names) != 1 {
		t.Fatalf("restart tenants %v, want only keep", names)
	}
	if got := reg.Counter("fenrir_snapshot_unreadable_total").Value(); got != 0 {
		t.Fatalf("restart unreadable counter = %d, want 0", got)
	}
	if err := s3.Drain(); err != nil {
		t.Fatal(err)
	}

	future := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(future[8:10], 0x03EE)
	if err := os.WriteFile(filepath.Join(shard0, "future"+snapSuffix), future, 0o644); err != nil {
		t.Fatal(err)
	}
	var verr *snapshot.UnsupportedVersionError
	if _, err := New(Config{SnapshotDir: dir, Obs: obs.NewRegistry()}); !errors.As(err, &verr) {
		t.Fatalf("unknown version: New returned %v, want *UnsupportedVersionError", err)
	}
	if _, err := os.Stat(filepath.Join(shard0, "future"+snapSuffix)); err != nil {
		t.Fatalf("unknown-version file moved: %v", err)
	}
}

// The full sharded lifecycle under the race detector: concurrent
// creates, ingest, explicit checkpoints, and rebalances across shards,
// then a drain racing the lot. Afterwards no tenant may be lost, be
// resolvable to a shard that does not host it, hold a checkpoint in two
// shard directories, or still have a live worker.
func TestShardedConcurrentLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Shards: 4, SnapshotDir: dir, SnapshotEvery: 8, Obs: obs.NewRegistry()})
	nets := specNets(12)

	const tenants = 12
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("life-%02d", i)
		if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/"+names[i], defaultSpec(12)); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", names[i], code, body)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	// One writer per tenant, in strict epoch order; during the drain race
	// it tolerates 503s and stops.
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			<-start
			for e := 0; e < 32; e++ {
				code, _ := doReq(t, ts, http.MethodPost,
					"/v1/tenants/"+name+"/observations", observation(nets, e, 16))
				if code == http.StatusServiceUnavailable {
					return
				}
				if code != http.StatusAccepted && code != http.StatusTooManyRequests {
					t.Errorf("%s epoch %d: status %d", name, e, code)
					return
				}
			}
		}(name)
	}
	// Checkpointers hammer two tenants.
	for _, name := range names[:2] {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				doReq(t, ts, http.MethodPost, "/v1/tenants/"+name+"/checkpoint", nil)
			}
		}(name)
	}
	// A rebalancer walks one tenant around the ring while it ingests.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 6; i++ {
			doReq(t, ts, http.MethodPost, "/v1/admin/rebalance",
				map[string]any{"tenant": names[0], "shard": i % 4})
		}
	}()
	// And a drain lands mid-flight.
	wg.Add(1)
	var drainErr error
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(2 * time.Millisecond)
		drainErr = s.Drain()
	}()
	close(start)
	wg.Wait()
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}

	for _, name := range names {
		// Exactly one shard hosts the tenant, and placement agrees with it.
		hosts := 0
		for _, sh := range s.shards {
			if sh.tenant(name) != nil {
				hosts++
			}
		}
		if hosts != 1 {
			t.Fatalf("%s hosted by %d shards, want exactly 1", name, hosts)
		}
		sh := s.shardFor(name)
		tn := sh.tenant(name)
		if tn == nil {
			t.Fatalf("%s: placement points at shard %d but it is not there", name, sh.id)
		}
		tn.mu.Lock()
		stopped := tn.stopped
		tn.mu.Unlock()
		if !stopped {
			t.Fatalf("%s still has a live worker after drain", name)
		}
		// Its checkpoint lives in its shard's directory and nowhere else.
		files := 0
		for _, other := range s.shards {
			if _, err := os.Stat(filepath.Join(other.dir(), name+snapSuffix)); err == nil {
				files++
				if other.id != sh.id {
					t.Fatalf("%s checkpointed into shard %d dir but lives on shard %d",
						name, other.id, sh.id)
				}
			}
		}
		if files != 1 {
			t.Fatalf("%s has %d checkpoint files, want 1", name, files)
		}
		// The checkpoint loads and covers the monitor's full history.
		mon, err := snapshot.LoadMonitor(filepath.Join(sh.dir(), name+snapSuffix))
		if err != nil {
			t.Fatalf("%s checkpoint unreadable: %v", name, err)
		}
		if mon.Len() != tn.mon.Len() {
			t.Fatalf("%s checkpoint history %d, live history %d", name, mon.Len(), tn.mon.Len())
		}
	}
}
