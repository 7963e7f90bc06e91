package serve

import (
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

// Regression for the create-vs-drain TOCTOU: handleCreateTenant used to
// check isDraining before taking the tenant-map lock, so a create racing
// Drain could insert a tenant after the drain snapshot of the tenant
// list — leaving it running and never checkpointed. Now the draining
// flag is re-checked under the table lock: every 201 tenant must end up
// stopped with a checkpoint file, and every 503 tenant must not exist at
// all.
func TestCreateDuringDrainRace(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{SnapshotDir: dir, Obs: obs.NewRegistry()})

	const creators = 48
	codes := make([]int, creators)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < creators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var err error
			codes[i], _, err = tryReq(ts, http.MethodPut,
				fmt.Sprintf("/v1/tenants/race-%02d", i), defaultSpec(6))
			if err != nil {
				t.Error(err)
			}
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
		tn := s.tenant(name)
		switch code {
		case http.StatusCreated:
			created++
			if tn == nil {
				t.Fatalf("%s got 201 but is missing", name)
			}
			tn.mu.Lock()
			stopped := tn.stopped
			tn.mu.Unlock()
			if !stopped {
				t.Fatalf("%s got 201 but its worker survived the drain", name)
			}
			if _, err := os.Stat(filepath.Join(dir, name+snapSuffix)); err != nil {
				t.Fatalf("%s got 201 but drain left no checkpoint: %v", name, err)
			}
		case http.StatusServiceUnavailable:
			refused++
			if tn != nil {
				t.Fatalf("%s got 503 but exists", name)
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
	s, err := New(Config{Obs: reg})
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

// The full lifecycle under the race detector: concurrent ingest and
// explicit checkpoints, then a drain racing the lot. Afterwards no
// tenant may be lost or still have a live worker, and each has a
// checkpoint at <dir>/<name>.fsnap covering its whole history.
func TestConcurrentLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{SnapshotDir: dir, SnapshotEvery: 8, Obs: obs.NewRegistry()})
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
				code, _, err := tryReq(ts, http.MethodPost,
					"/v1/tenants/"+name+"/observations", observation(nets, e, 16))
				if err != nil {
					t.Error(err)
					return
				}
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
				if _, _, err := tryReq(ts, http.MethodPost, "/v1/tenants/"+name+"/checkpoint", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
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
		tn := s.tenant(name)
		if tn == nil {
			t.Fatalf("%s lost", name)
		}
		tn.mu.Lock()
		stopped := tn.stopped
		tn.mu.Unlock()
		if !stopped {
			t.Fatalf("%s still has a live worker after drain", name)
		}
		// The checkpoint loads and covers the monitor's full history.
		mon, err := snapshot.LoadMonitor(filepath.Join(dir, name+snapSuffix))
		if err != nil {
			t.Fatalf("%s checkpoint unreadable: %v", name, err)
		}
		if mon.Len() != tn.mon.Len() {
			t.Fatalf("%s checkpoint history %d, live history %d", name, mon.Len(), tn.mon.Len())
		}
	}
}
