package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"fenrir/internal/core"
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
