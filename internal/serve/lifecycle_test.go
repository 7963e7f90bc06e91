package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"fenrir/internal/core"
)

// TestLifecycleMatchesModel drives a daemon through seeded random
// interleavings of create, ingest, checkpoint, drain, crash and restart,
// and checks it after every step against a model: per tenant, the
// accepted observations, the prefix of them made durable and the
// periodic-checkpoint counter. The query
// oracle is a memory-only reference daemon fed the model's accepted
// observations. The event endpoints are also checked against batch
// core.DetectChanges over the reference's monitor, on tenants that are
// windowed or unbounded, weighted or not, and with detect.mode equal to
// or decoupled from unknown_mode. The memory-only daemon skips drain and
// crash, since a restart without a snapshot dir keeps nothing.
func TestLifecycleMatchesModel(t *testing.T) {
	var runs int
	var oracle lifeOracle
	for _, d := range []struct {
		name    string
		cfg     Config
		weights []int // of each step kind
	}{
		{"dir", Config{SnapshotEvery: 5, DefaultWindow: 16}, []int{2, 7, 2, 1, 2}},
		{"memory", Config{}, []int{2, 7, 2, 0, 0}},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", d.name, seed), func(t *testing.T) {
				cfg := d.cfg
				if d.name == "dir" {
					cfg.SnapshotDir = t.TempDir()
				}
				l := newLifecycle(t, cfg, seed)
				l.run(120, d.weights)
				runs++
				oracle.weighted += l.oracle.weighted
				oracle.decoupled += l.oracle.decoupled
			})
		}
	}
	if runs == 10 && (oracle.weighted == 0 || oracle.decoupled == 0) {
		t.Fatalf("event oracle checked %+v events on weighted and decoupled-mode tenants", oracle)
	}
	t.Logf("event oracle checked %+v events", oracle)
}

// The step kinds, and their names.
const (
	stepCreate = iota
	stepIngest
	stepCheckpoint
	stepDrain
	stepCrash
)

var lifeSteps = []string{"create", "ingest", "checkpoint", "drain", "crash"}

// lifeSites are the sites observations draw from; lifeNets is every
// tenant's network universe.
var (
	lifeSites = []string{"alpha", "beta", "gamma"}
	lifeNets  = specNets(12)
)

// lifeTenant is the model of one tenant.
type lifeTenant struct {
	spec     TenantSpec    // as created
	window   int           // effective window bound (0 = unbounded)
	accepted []Observation // every observation the tenant accepted, in order
	durable  int           // accepted[:durable] is on disk; -1 before the first durable write
	since    int           // appends since the tenant object's last write
	era      int           // current site pattern of generated observations
}

// lifecycle is one seeded run: the daemon under test, its reference,
// and the model both must match.
type lifecycle struct {
	t   *testing.T
	cfg Config
	rng *rand.Rand

	srv, ref *Server
	model    map[string]*lifeTenant
	names    []string // every name created so far, in creation order

	kinds   []int // steps run, by kind
	evicted bool  // some tenant has evicted an observation
	// touched is the tenant the step acted on, "" after a drain or crash,
	// which act on every tenant.
	touched string
	oracle  lifeOracle
}

// lifeOracle counts the events checked against batch detection on
// weighted tenants and on tenants with a decoupled detect.mode.
type lifeOracle struct{ weighted, decoupled int }

func newLifecycle(t *testing.T, cfg Config, seed int64) *lifecycle {
	l := &lifecycle{
		t: t, cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		model: make(map[string]*lifeTenant),
		kinds: make([]int, len(lifeSteps)),
	}
	l.srv = l.start(cfg)
	l.ref = l.start(Config{DefaultWindow: cfg.DefaultWindow})
	// Drain only the daemons current at the end: a crashed one must never
	// write again, and a periodic checkpoint must not land in a snapshot
	// dir that t.TempDir's cleanup, registered earlier, is removing.
	t.Cleanup(func() {
		l.srv.Drain() //nolint:errcheck // the test has made its checks
		l.ref.Drain() //nolint:errcheck // memory-only
	})
	return l
}

func (l *lifecycle) start(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		l.t.Fatal(err)
	}
	return s
}

func (l *lifecycle) do(s *Server, method, path string, body any) (int, []byte) {
	var raw []byte
	if body != nil {
		raw = mustJSON(l.t, body)
	}
	rec := serveBody(s.Handler(), method, path, raw)
	return rec.Code, rec.Body.Bytes()
}

// expect fails the test unless a request answered want.
func (l *lifecycle) expect(what string, code int, body []byte, want int) {
	l.t.Helper()
	if code != want {
		l.t.Fatalf("%s: status %d, want %d: %s", what, code, want, body)
	}
}

// live returns the model's tenant names, sorted.
func (l *lifecycle) live() []string {
	names := make([]string, 0, len(l.model))
	for name := range l.model {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (l *lifecycle) run(steps int, weights []int) {
	total := 0
	for _, w := range weights {
		total += w
	}
	for i := 0; i < steps; i++ {
		kind := 0
		for r := l.rng.Intn(total); r >= weights[kind]; kind++ {
			r -= weights[kind]
		}
		if len(l.model) == 0 && kind < stepDrain {
			kind = stepCreate // the other steps need a tenant
		}
		l.touched = ""
		switch kind {
		case stepCreate:
			l.create()
		case stepIngest:
			l.ingest()
		case stepCheckpoint:
			l.checkpoint()
		case stepDrain:
			l.drain()
		case stepCrash:
			l.crash()
		}
		l.kinds[kind]++
		l.check(fmt.Sprintf("step %d (%s)", i, lifeSteps[kind]))
	}
	for kind, w := range weights {
		if w > 0 && l.kinds[kind] == 0 {
			l.t.Fatalf("no %s step in %d steps: %v", lifeSteps[kind], steps, l.kinds)
		}
	}
	if !l.evicted {
		l.t.Fatal("no tenant evicted an observation")
	}
	l.t.Logf("steps by kind %v, %d tenants live", l.kinds, len(l.model))
}

// create makes a new tenant, or one time in four re-creates a name used
// before: 409 while it lives, 201 once a crash has lost it.
func (l *lifecycle) create() {
	idx := len(l.names)
	if len(l.names) > 0 && l.rng.Intn(4) == 0 {
		idx = l.rng.Intn(len(l.names))
	} else {
		l.names = append(l.names, fmt.Sprintf("t%d", idx))
	}
	name := l.names[idx]
	l.touched = name
	spec := lifeSpec(idx)
	if l.rng.Intn(2) == 0 {
		spec.Window = 8
	}
	code, body := l.do(l.srv, http.MethodPut, "/v1/tenants/"+name, spec)
	if _, ok := l.model[name]; ok {
		l.expect("re-create "+name, code, body, http.StatusConflict)
		return
	}
	l.expect("create "+name, code, body, http.StatusCreated)
	code, body = l.do(l.ref, http.MethodPut, "/v1/tenants/"+name, spec)
	l.expect("reference create "+name, code, body, http.StatusCreated)
	window := spec.Window
	if window == 0 {
		window = l.cfg.DefaultWindow
	}
	l.model[name] = &lifeTenant{spec: spec, window: window, durable: -1}
}

// lifeSpec is the spec of the n-th tenant name: odd ones weight their
// networks unevenly, and those 2 and 3 mod 4 compute Φ known-only but
// detect on pessimistic Φ.
func lifeSpec(n int) TenantSpec {
	spec := defaultSpec(len(lifeNets))
	if n%2 == 1 {
		spec.Weights = make([]float64, len(lifeNets))
		for i := range spec.Weights {
			spec.Weights[i] = float64(1 + i%3)
		}
	}
	if n%4 >= 2 {
		spec.UnknownMode = "known-only"
		spec.Detect = &DetectSpec{Mode: "pessimistic"}
	}
	return spec
}

// pick draws a live tenant.
func (l *lifecycle) pick() (string, *lifeTenant) {
	names := l.live()
	name := names[l.rng.Intn(len(names))]
	l.touched = name
	return name, l.model[name]
}

// observation draws epoch e's routing vector: most networks follow the
// tenant's era, which now and then moves on, so modes recur and change
// events fire; some are unknown or stray.
func (l *lifecycle) observation(m *lifeTenant, e int64) Observation {
	if l.rng.Intn(6) == 0 {
		m.era = (m.era + 1) % len(lifeSites)
	}
	sites := make(map[string]string, len(lifeNets))
	for i, n := range lifeNets {
		switch r := l.rng.Intn(12); {
		case r == 0:
		case r == 1:
			sites[n] = lifeSites[l.rng.Intn(len(lifeSites))]
		default:
			sites[n] = lifeSites[(i/4+m.era)%len(lifeSites)]
		}
	}
	return Observation{Epoch: e, Sites: sites}
}

// ingest posts 1–6 observations to one tenant: mostly the next epoch,
// sometimes a gap, a duplicate of the newest or an older epoch.
func (l *lifecycle) ingest() {
	name, m := l.pick()
	for n := 1 + l.rng.Intn(6); n > 0; n-- {
		last := int64(-1)
		if k := len(m.accepted); k > 0 {
			last = m.accepted[k-1].Epoch
		}
		e := last + 1
		switch r := l.rng.Intn(10); {
		case r == 0:
			e = last + 2 + int64(l.rng.Intn(3))
		case r == 1 && last >= 0:
			e = last
		case r == 2 && last > 0:
			e = l.rng.Int63n(last) // possibly evicted long ago
		}
		ob := l.observation(m, e)
		path := "/v1/tenants/" + name + "/observations"
		code, body := l.do(l.srv, http.MethodPost, path, ob)
		what := fmt.Sprintf("ingest %s epoch %d after %d", name, e, last)
		if e <= last {
			l.expect(what, code, body, http.StatusBadRequest)
			reason := "out-of-order"
			if e == last {
				reason = "duplicate"
			}
			if !strings.Contains(string(body), reason) {
				l.t.Fatalf("%s: rejection does not say %s: %s", what, reason, body)
			}
			continue
		}
		l.expect(what, code, body, http.StatusAccepted)
		code, body = l.do(l.ref, http.MethodPost, path, ob)
		l.expect("reference "+what, code, body, http.StatusAccepted)
		m.accepted = append(m.accepted, ob)
		m.since++
		if l.cfg.SnapshotDir != "" && m.since >= l.cfg.SnapshotEvery {
			m.durable, m.since = len(m.accepted), 0
		}
	}
}

// checkpoint is the explicit POST …/checkpoint: durable with a snapshot
// dir, 409 without one.
func (l *lifecycle) checkpoint() {
	name, m := l.pick()
	code, body := l.do(l.srv, http.MethodPost, "/v1/tenants/"+name+"/checkpoint", nil)
	if l.cfg.SnapshotDir == "" {
		l.expect("checkpoint "+name, code, body, http.StatusConflict)
		return
	}
	l.expect("checkpoint "+name, code, body, http.StatusOK)
	m.durable, m.since = len(m.accepted), 0
}

// drain checkpoints every tenant and restarts on the same dir.
func (l *lifecycle) drain() {
	if err := l.srv.Drain(); err != nil {
		l.t.Fatalf("drain: %v", err)
	}
	l.srv = l.start(l.cfg)
	for _, m := range l.model {
		m.durable, m.since = len(m.accepted), 0
	}
}

// crash stops every worker once its queue is empty, with no final
// checkpoint, and the sampler; the crashed daemon never writes again.
// A new daemon restarts on the same dir, and every tenant reverts to
// its durable prefix, or is gone if it never had one. The reference is
// rebuilt from those prefixes.
func (l *lifecycle) crash() {
	for _, name := range l.srv.tenantNames() {
		l.srv.tenant(name).stop()
	}
	l.srv.hist.Stop()
	l.srv = l.start(l.cfg)
	if err := l.ref.Drain(); err != nil {
		l.t.Fatal(err)
	}
	l.ref = l.start(Config{DefaultWindow: l.cfg.DefaultWindow})
	for _, name := range l.live() {
		m := l.model[name]
		if m.durable < 0 {
			delete(l.model, name)
			continue
		}
		m.accepted, m.since = m.accepted[:m.durable], 0
		code, body := l.do(l.ref, http.MethodPut, "/v1/tenants/"+name, m.spec)
		l.expect("reference re-create "+name, code, body, http.StatusCreated)
		for _, ob := range m.accepted {
			code, body := l.do(l.ref, http.MethodPost, "/v1/tenants/"+name+"/observations", ob)
			l.expect("reference replay "+name, code, body, http.StatusAccepted)
		}
	}
}

// lifeStatus is the part of tenant status the model predicts.
type lifeStatus struct {
	History      int    `json:"history"`
	Appends      int    `json:"appends"`
	Events       uint64 `json:"events"`
	Window       int    `json:"window"`
	Evictions    int    `json:"evictions"`
	LastAccepted *int64 `json:"last_accepted"`
}

func (l *lifecycle) status(s *Server, name string) lifeStatus {
	code, body := l.do(s, http.MethodGet, "/v1/tenants/"+name, nil)
	l.expect("status "+name, code, body, http.StatusOK)
	var st lifeStatus
	if err := json.Unmarshal(body, &st); err != nil {
		l.t.Fatalf("status %s: %v", name, err)
	}
	return st
}

// check compares the daemon with the model and the reference: the
// tenant set, each tenant's status and five deterministic endpoints,
// the event endpoints of the tenants the step touched against batch
// detection, and, with a snapshot dir, where the checkpoint files are.
func (l *lifecycle) check(step string) {
	l.t.Helper()
	names := l.live()
	if got := l.srv.tenantNames(); !slices.Equal(got, names) {
		l.t.Fatalf("%s: daemon hosts %v, model %v", step, got, names)
	}
	for _, name := range names {
		m := l.model[name]
		l.srv.tenant(name).flush()
		l.ref.tenant(name).flush()
		n := len(m.accepted)
		want := lifeStatus{History: n, Appends: n, Window: m.window}
		if m.window > 0 && n > m.window {
			want.History, want.Evictions = m.window, n-m.window
		}
		if n > 0 {
			want.LastAccepted = &m.accepted[n-1].Epoch
		}
		want.Events = l.status(l.ref, name).Events
		if got := l.status(l.srv, name); !reflect.DeepEqual(got, want) {
			l.t.Fatalf("%s: %s status %+v, model %+v", step, name, got, want)
		}
		l.evicted = l.evicted || want.Evictions > 0
		for _, q := range []string{"mode", "events?n=50", "heatmap", "transitions", "flows?k=5"} {
			path := "/v1/tenants/" + name + "/" + q
			code, body := l.do(l.srv, http.MethodGet, path, nil)
			wantCode, wantBody := l.do(l.ref, http.MethodGet, path, nil)
			if code != wantCode || string(body) != string(wantBody) {
				l.t.Fatalf("%s: %s = %d %s\nreference %d %s", step, path, code, body, wantCode, wantBody)
			}
		}
		if l.touched == "" || l.touched == name {
			l.checkEvents(step, name)
		}
	}
	if l.cfg.SnapshotDir != "" {
		l.checkFiles(step)
	}
}

// checkEvents compares a tenant's event endpoints — /events?n=50, plain
// and explained, and /events/{at}/explain for each listed event — with
// batch detection over the reference daemon's monitor, rendered by
// renderEvent. Both daemons run the same monitor code, so only this
// oracle shows a monitor that drifts from DetectChanges.
func (l *lifecycle) checkEvents(step, name string) {
	l.t.Helper()
	mon := l.ref.tenant(name).mon
	events := core.DetectChanges(mon.Series(), mon.Weights(), mon.Detect())
	if len(events) > 50 {
		events = events[len(events)-50:]
	}
	base := "/v1/tenants/" + name + "/events"
	for _, explain := range []bool{false, true} {
		list := make([]any, len(events))
		for i, ev := range events {
			list[i] = renderEvent(ev, explain)
		}
		path := base + "?n=50"
		if explain {
			path += "&explain=1"
		}
		l.expectJSON(step, path, map[string]any{"events": list})
	}
	for _, ev := range events {
		l.expectJSON(step, fmt.Sprintf("%s/%d/explain", base, ev.At), renderEvent(ev, true))
	}
	if spec := l.model[name].spec; spec.Weights != nil {
		l.oracle.weighted += len(events)
	} else if spec.Detect != nil {
		l.oracle.decoupled += len(events)
	}
}

// expectJSON fails unless the daemon answers path 200 with a body equal,
// as decoded JSON, to want.
func (l *lifecycle) expectJSON(step, path string, want any) {
	l.t.Helper()
	code, body := l.do(l.srv, http.MethodGet, path, nil)
	var got, exp any
	if code != http.StatusOK || json.Unmarshal(body, &got) != nil ||
		json.Unmarshal(mustJSON(l.t, want), &exp) != nil || !reflect.DeepEqual(got, exp) {
		l.t.Fatalf("%s: %s = %d %s\nbatch detection %s", step, path, code, body, mustJSON(l.t, want))
	}
}

// renderEvent is the test's own wire rendering of a change event, with
// its explanation when explain is set.
func renderEvent(ev core.ChangeEvent, explain bool) map[string]any {
	e := map[string]any{"at": int64(ev.At), "phi": ev.Phi, "baseline": ev.Baseline, "magnitude": ev.Magnitude}
	if !explain {
		return e
	}
	ex := ev.Explanation
	contributors := []map[string]any{}
	for _, c := range ex.Contributors {
		contributors = append(contributors, map[string]any{"network": c.Network, "from": c.From, "to": c.To, "weight": c.Weight})
	}
	flows := []map[string]any{}
	for _, f := range ex.TopFlows {
		flows = append(flows, map[string]any{"from": f.From, "to": f.To, "count": f.Count})
	}
	e["explanation"] = map[string]any{
		"verdict": ex.Label(), "recurrence": ex.Recurrence, "matched_mode": ex.MatchedMode,
		"mode_phi": ex.ModePhi, "mode_count": ex.ModeCount,
		"contributors": contributors, "changed_count": ex.ChangedCount, "changed_weight": ex.ChangedWeight,
		"moved": ex.Moved, "stayed": ex.Stayed, "unobserved": ex.Unobserved, "total": ex.Total,
		"went_unknown": ex.WentUnknown, "became_known": ex.BecameKnown, "top_flows": flows,
	}
	return e
}

// checkFiles requires each tenant's checkpoint file at
// <dir>/<name>.fsnap once it has a durable write, and no other
// checkpoint and no shard-* directory. A periodic checkpoint of the last
// append may still be in flight after flush, so the listing is polled
// until it matches.
func (l *lifecycle) checkFiles(step string) {
	l.t.Helper()
	if legacy, _ := filepath.Glob(filepath.Join(l.cfg.SnapshotDir, "shard-*")); len(legacy) > 0 {
		l.t.Fatalf("%s: legacy shard directories %v", step, legacy)
	}
	var want []string
	for _, name := range l.live() {
		if m := l.model[name]; m.durable >= 0 {
			want = append(want, name+snapSuffix)
		}
	}
	sort.Strings(want)
	deadline := time.Now().Add(5 * time.Second)
	for {
		paths, err := filepath.Glob(filepath.Join(l.cfg.SnapshotDir, "*"+snapSuffix))
		if err != nil {
			l.t.Fatal(err)
		}
		got := make([]string, len(paths))
		for i, p := range paths {
			got[i] = strings.TrimPrefix(p, l.cfg.SnapshotDir+string(filepath.Separator))
		}
		sort.Strings(got)
		if slices.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			l.t.Fatalf("%s: checkpoint files %v, model %v", step, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}
