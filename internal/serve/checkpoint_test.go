package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/obs"
	"fenrir/internal/snapshot"
)

// holdCheckpoints sets beforeSave so the first checkpoint to take a
// state stops between taking it and saving it until release is closed;
// its state arrives on held, and the state of every later checkpoint on
// others. Call it before the server starts, so every worker sees the
// hook.
func holdCheckpoints(t *testing.T) (held, others chan core.MonitorState, release chan struct{}) {
	t.Helper()
	held = make(chan core.MonitorState, 1)
	others = make(chan core.MonitorState, 16)
	release = make(chan struct{})
	var first sync.Once
	beforeSave = func(st core.MonitorState) {
		hold := false
		first.Do(func() { hold = true })
		if !hold {
			others <- st
			return
		}
		held <- st
		<-release
	}
	t.Cleanup(func() { beforeSave = nil })
	return held, others, release
}

// postCheckpoint POSTs an explicit checkpoint of tenant and sends the
// status code on the returned channel (0 when the request fails).
func postCheckpoint(ts *httptest.Server, tenant string) <-chan int {
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/tenants/"+tenant+"/checkpoint", "application/json", nil)
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

// fileAppends polls the checkpoint at path until it decodes with want
// appends, failing with the last count read after five seconds.
func fileAppends(t *testing.T, path string, want uint64) {
	t.Helper()
	var got uint64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		st, err := snapshot.DecodeMonitor(f)
		f.Close()
		if err != nil {
			t.Fatalf("checkpoint %s: %v", path, err)
		}
		if got = st.Appends; got == want {
			return
		}
	}
	t.Fatalf("checkpoint holds %d appends, want %d", got, want)
}

// TestCheckpointsLandInOrder: an explicit checkpoint and the worker's
// periodic one do not overlap. The explicit checkpoint takes a state of
// 2 appends and is held before its save while the worker appends two
// more, which makes the periodic checkpoint due. That checkpoint must
// not take its state until the held one has landed, and the file ends
// with all 4 appends. Unordered, the periodic checkpoint wrote 4 and
// the held one then renamed its 2 over it.
func TestCheckpointsLandInOrder(t *testing.T) {
	held, others, release := holdCheckpoints(t)
	s, ts := testServer(t, Config{SnapshotDir: t.TempDir(), SnapshotEvery: 4})
	nets := specNets(8)
	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/acct", defaultSpec(8)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	tn := s.tenant("acct")
	mustIngest(t, ts, "acct", nets, 0, 2, 99)
	tn.flush()
	code := postCheckpoint(ts, "acct")
	if st := <-held; st.Appends != 2 {
		t.Fatalf("explicit checkpoint took %d appends, want 2", st.Appends)
	}
	mustIngest(t, ts, "acct", nets, 2, 4, 99)
	tn.flush()
	select {
	case st := <-others:
		t.Errorf("a checkpoint took a state of %d appends while another still held one of 2", st.Appends)
		fileAppends(t, tn.snapshotPath(), st.Appends) // let it land first, as unordered writes may
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if c := <-code; c != http.StatusOK {
		t.Fatalf("explicit checkpoint: status %d", c)
	}
	fileAppends(t, tn.snapshotPath(), 4)
}

// TestCheckpointKeepsLaterAppendsCounted: a checkpoint counts toward
// the next periodic one only the appends its state covered. The
// explicit checkpoint takes a state of 2 appends and is held while the
// worker appends a third; once it lands that third append is still
// counted, so with SnapshotEvery 4 the periodic checkpoint comes at
// append 6, not 7.
func TestCheckpointKeepsLaterAppendsCounted(t *testing.T) {
	held, _, release := holdCheckpoints(t)
	s, ts := testServer(t, Config{SnapshotDir: t.TempDir(), SnapshotEvery: 4})
	nets := specNets(8)
	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/acct", defaultSpec(8)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	tn := s.tenant("acct")
	mustIngest(t, ts, "acct", nets, 0, 2, 99)
	tn.flush()
	code := postCheckpoint(ts, "acct")
	<-held
	mustIngest(t, ts, "acct", nets, 2, 3, 99)
	tn.flush()
	close(release)
	if c := <-code; c != http.StatusOK {
		t.Fatalf("explicit checkpoint: status %d", c)
	}
	tn.mu.Lock()
	since := tn.sinceCheckpoint
	tn.mu.Unlock()
	if since != 1 {
		t.Errorf("after a checkpoint of 2 of 3 appends, %d appends count toward the next, want 1", since)
	}
	mustIngest(t, ts, "acct", nets, 3, 6, 99)
	fileAppends(t, tn.snapshotPath(), 6)
}

// TestExplicitCheckpointDuringDrain: an explicit checkpoint that passed
// the draining check cannot land over the drain's final checkpoint. It
// takes a state of 2 appends and is held while 2 more are accepted and
// Drain begins; Drain's own checkpoint must then wait for it, and the
// file ends with all 4. Unordered, the drain wrote 4 and the held
// checkpoint then renamed its 2 over it.
func TestExplicitCheckpointDuringDrain(t *testing.T) {
	held, others, release := holdCheckpoints(t)
	s, ts := testServer(t, Config{SnapshotDir: t.TempDir(), SnapshotEvery: 1 << 20})
	nets := specNets(8)
	if code, body := doReq(t, ts, http.MethodPut, "/v1/tenants/acct", defaultSpec(8)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	tn := s.tenant("acct")
	mustIngest(t, ts, "acct", nets, 0, 2, 99)
	tn.flush()
	code := postCheckpoint(ts, "acct")
	if st := <-held; st.Appends != 2 {
		t.Fatalf("explicit checkpoint took %d appends, want 2", st.Appends)
	}
	mustIngest(t, ts, "acct", nets, 2, 4, 99)
	tn.flush()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain() }()
	select {
	case st := <-others:
		t.Errorf("the drain took a state of %d appends while a checkpoint still held one of 2", st.Appends)
		fileAppends(t, tn.snapshotPath(), st.Appends) // let it land first, as unordered writes may
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if c := <-code; c != http.StatusOK {
		t.Fatalf("explicit checkpoint: status %d", c)
	}
	fileAppends(t, tn.snapshotPath(), 4)
}

// An explicit checkpoint is accounted once: the tenant's size gauge
// reads the file's size, the write lands once in the daemon-wide and
// per-tenant checkpoint histograms and in the writes counter, and the
// flight recorder logs it. SnapshotEvery exceeds the stream, so the
// explicit write is the tenant's first checkpoint.
func TestCheckpointAccounted(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, Config{SnapshotDir: t.TempDir(), SnapshotEvery: 1 << 20, Obs: reg})
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/acct", defaultSpec(20)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "acct", specNets(20), 0, 12, 6)
	waitHistory(t, ts, "acct", 12)
	if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/acct/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	fi, err := os.Stat(s.tenant("acct").snapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(`fenrir_snapshot_bytes{tenant="acct"}`).Value(); got != float64(fi.Size()) {
		t.Errorf("fenrir_snapshot_bytes = %v, the file holds %d bytes", got, fi.Size())
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

// A checkpoint that fails answers 500 and is counted once, and the
// tenant keeps its worker: it goes on ingesting, and once the directory
// is back the next checkpoint covers every accepted observation.
func TestCheckpointFailureKeepsTenant(t *testing.T) {
	reg := obs.NewRegistry()
	dir := filepath.Join(t.TempDir(), "state")
	_, ts := testServer(t, Config{SnapshotDir: dir, Obs: reg})
	nets := specNets(20)
	if code, _ := doReq(t, ts, http.MethodPut, "/v1/tenants/stay", defaultSpec(20)); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	mustIngest(t, ts, "stay", nets, 0, 8, 4)
	waitHistory(t, ts, "stay", 8)
	// A file where the snapshot directory should be fails the checkpoint.
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/stay/checkpoint", nil); code != http.StatusInternalServerError {
		t.Fatalf("checkpoint into a broken snapshot dir: %d %s, want 500", code, body)
	}
	if got := reg.Counter("fenrir_snapshot_errors_total").Value(); got != 1 {
		t.Fatalf("fenrir_snapshot_errors_total = %d, want 1", got)
	}
	mustIngest(t, ts, "stay", nets, 8, 12, 4)
	waitHistory(t, ts, "stay", 12)
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	if code, body := doReq(t, ts, http.MethodPost, "/v1/tenants/stay/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	fileAppends(t, filepath.Join(dir, "stay"+snapSuffix), 12)
}
