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
	"testing"

	"fenrir/internal/core"
	"fenrir/internal/obs"
	"fenrir/internal/snapshot"
	"fenrir/internal/timeline"
)

// specMonitor is a new tenant monitor of defaultSpec(nets).
func specMonitor(t *testing.T, nets int) *core.Monitor {
	t.Helper()
	mon, err := monitorFromSpec(defaultSpec(nets), 0)
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// feed appends to mon the observations of epochs from through to-1,
// flipping era at flipAt, as a daemon tenant would, and returns mon.
func feed(t *testing.T, mon *core.Monitor, nets []string, from, to, flipAt int) *core.Monitor {
	t.Helper()
	for e := from; e < to; e++ {
		v := mon.Space().NewVector(timeline.Epoch(e))
		for net, site := range observation(nets, e, flipAt).Sites {
			v.Set(mon.Space().NetworkIndex(net), site)
		}
		if _, _, err := mon.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return mon
}

// saveState writes mon's checkpoint to path, making its directory.
func saveState(t *testing.T, path string, mon *core.Monitor) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.SaveMonitor(path, mon.State()); err != nil {
		t.Fatal(err)
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

// A tenant found both flat and in a shard-<k> directory keeps the copy
// with more appends, and the other file is deleted: here the legacy one
// wins, as after a rollback to a sharded daemon that went on ingesting
// and a restart on this one.
func TestDuplicateSnapshotResolved(t *testing.T) {
	dir := t.TempDir()
	nets := specNets(20)
	mon := feed(t, specMonitor(t, 20), nets, 0, 10, 8)
	saveState(t, filepath.Join(dir, "dup"+snapSuffix), mon)
	saveState(t, filepath.Join(dir, "shard-3", "dup"+snapSuffix), feed(t, mon, nets, 10, 16, 8))

	_, ts := testServer(t, Config{SnapshotDir: dir, Obs: obs.NewRegistry()})
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
	if _, err := os.Stat(filepath.Join(dir, "dup"+snapSuffix)); !os.IsNotExist(err) {
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

	orphans := []string{"keep" + snapSuffix + ".tmp-123", "gone" + snapSuffix + ".tmp-456"}
	for _, name := range append(orphans, "notes.txt") {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	_, ts := testServer(t, Config{SnapshotDir: dir, Obs: reg})
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
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
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
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
	raw, err := os.ReadFile(filepath.Join(dir, "keep"+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[8+3+4+1] ^= 0xff // the first frame's second payload byte
	badMagic := append([]byte(nil), raw...)
	badMagic[0] ^= 0xff
	bad := map[string][]byte{"flipped": flipped, "magic": badMagic}
	for name, b := range bad {
		if err := os.WriteFile(filepath.Join(dir, name+snapSuffix), b, 0o644); err != nil {
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
		path := filepath.Join(dir, name+snapSuffix)
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
	if err := os.WriteFile(filepath.Join(dir, "future"+snapSuffix), future, 0o644); err != nil {
		t.Fatal(err)
	}
	var verr *snapshot.UnsupportedVersionError
	if _, err := New(Config{SnapshotDir: dir, Obs: obs.NewRegistry()}); !errors.As(err, &verr) {
		t.Fatalf("unknown version: New returned %v, want *UnsupportedVersionError", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "future"+snapSuffix)); err != nil {
		t.Fatalf("unknown-version file moved: %v", err)
	}
}

// TestRestoreShardedLayout: a daemon started on a directory in the
// layout sharded daemons wrote, <dir>/shard-<k>/<name>.fsnap, restores
// every tenant as a monitor loaded from its file answers, keeps the
// duplicate copy with more appends and deletes the other, removes the
// orphaned temp file and sets the corrupt checkpoint aside. After a
// drain and a restart every tenant answers the same from its flat file,
// and no checkpoint is left under shard-*.
func TestRestoreShardedLayout(t *testing.T) {
	dir := t.TempDir()
	nets := specNets(20)
	legacy := func(k int, name string) string {
		return filepath.Join(dir, fmt.Sprintf("shard-%d", k), name+snapSuffix)
	}
	// One tenant alone in shard-0/, as a default daemon writes it.
	saveState(t, legacy(0, "solo"), feed(t, specMonitor(t, 20), nets, 0, 14, 7))
	// One tenant in two shard directories: 10 appends in shard-3/, 12 in
	// shard-1/, which is read first.
	dup := feed(t, specMonitor(t, 20), nets, 0, 10, 6)
	saveState(t, legacy(3, "dup"), dup)
	saveState(t, legacy(1, "dup"), feed(t, dup, nets, 10, 12, 6))
	// An orphaned temp file and a corrupt checkpoint.
	for path, raw := range map[string]string{
		legacy(2, "solo") + ".tmp-99": "partial",
		legacy(2, "bad"):              "not a snapshot",
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A flat tenant named like a legacy directory.
	saveState(t, filepath.Join(dir, "shard-1"+snapSuffix), feed(t, specMonitor(t, 20), nets, 0, 16, 9))

	// The reference serves each tenant from its winning file, loaded
	// before the daemon under test touches the directory.
	ref, err := New(Config{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Drain() }) //nolint:errcheck // memory-only
	for name, path := range map[string]string{
		"solo":    legacy(0, "solo"),
		"dup":     legacy(1, "dup"),
		"shard-1": filepath.Join(dir, "shard-1"+snapSuffix),
	} {
		mon, err := snapshot.LoadMonitor(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.insert(name, mon); err != nil {
			t.Fatal(err)
		}
	}
	matchRef := func(when string, s *Server) {
		t.Helper()
		if got, want := s.tenantNames(), ref.tenantNames(); !slices.Equal(got, want) {
			t.Fatalf("%s: tenants %v, want %v", when, got, want)
		}
		for _, name := range ref.tenantNames() {
			for _, path := range []string{"", "/mode", "/events?n=50"} {
				path = "/v1/tenants/" + name + path
				got := serveBody(s.Handler(), http.MethodGet, path, nil)
				want := serveBody(ref.Handler(), http.MethodGet, path, nil)
				if got.Code != want.Code || got.Body.String() != want.Body.String() {
					t.Fatalf("%s: %s = %d %s\nloaded from its file: %d %s",
						when, path, got.Code, got.Body, want.Code, want.Body)
				}
			}
		}
	}
	gone := func(when string, paths ...string) {
		t.Helper()
		for _, path := range paths {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("%s: %s still on disk (%v)", when, path, err)
			}
		}
	}

	reg := obs.NewRegistry()
	s, err := New(Config{SnapshotDir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	matchRef("restored from shard-*", s)
	gone("restored from shard-*", legacy(3, "dup"), legacy(2, "solo")+".tmp-99", legacy(2, "bad"))
	if _, err := os.Stat(legacy(2, "bad") + ".corrupt"); err != nil {
		t.Fatalf("corrupt checkpoint not set aside: %v", err)
	}
	for name, want := range map[string]int64{
		"fenrir_snapshot_orphans_removed_total": 1,
		"fenrir_snapshot_unreadable_total":      1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{SnapshotDir: dir, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Drain() }) //nolint:errcheck // the test has made its checks
	matchRef("restarted", s2)
	left, err := filepath.Glob(filepath.Join(dir, "shard-*", "*"+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("checkpoints left under shard-*: %v", left)
	}
	for _, name := range ref.tenantNames() {
		if _, err := os.Stat(filepath.Join(dir, name+snapSuffix)); err != nil {
			t.Fatalf("%s has no flat checkpoint: %v", name, err)
		}
	}
}
