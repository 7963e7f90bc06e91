package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/obs"
	"fenrir/internal/obs/history"
	"fenrir/internal/timeline"
)

// TenantSpec is the PUT /v1/tenants/{name} request body: the fixed
// universe a tenant's vectors live in, plus analysis configuration.
type TenantSpec struct {
	// Networks is the ordered network universe (rows of D). Required.
	Networks []string `json:"networks"`
	// Start, IntervalSeconds, and Epochs define the observation
	// schedule. Start is required; IntervalSeconds defaults to 240 (the
	// paper's four minutes) and Epochs bounds the schedule length
	// (default 1<<20).
	Start           time.Time `json:"start"`
	IntervalSeconds int       `json:"interval_seconds,omitempty"`
	Epochs          int       `json:"epochs,omitempty"`
	// Weights weight the networks in Φ and transitions; nil = uniform.
	Weights []float64 `json:"weights,omitempty"`
	// UnknownMode is "pessimistic" (default) or "known-only".
	UnknownMode string `json:"unknown_mode,omitempty"`
	// Detect overrides change-detection tuning; nil = defaults.
	Detect *DetectSpec `json:"detect,omitempty"`
	// Window bounds the tenant's retained history to the newest Window
	// observations (sliding-window eviction with exact Φ retirement);
	// 0 inherits the server's -window default, which is itself 0
	// (unbounded) unless set.
	Window int `json:"window,omitempty"`
}

// DetectSpec mirrors core.DetectOptions for the wire.
type DetectSpec struct {
	Window   int     `json:"window,omitempty"`
	MinDrop  float64 `json:"min_drop,omitempty"`
	Cooldown int     `json:"cooldown,omitempty"`
	// Mode optionally decouples detection's unknown handling from the
	// tenant's unknown_mode: "pessimistic" or "known-only". Empty
	// inherits unknown_mode (the historical behavior). A known-only
	// tenant can then still run the paper's pessimistic detector, whose
	// Φ drops on visibility loss as well as on genuine moves.
	Mode string `json:"mode,omitempty"`
}

// Observation is the POST …/observations request body: one routing
// result D(t). Networks absent from Sites stay unknown.
type Observation struct {
	Epoch int64             `json:"epoch"`
	Sites map[string]string `json:"sites"`
}

// tenantName constrains names to path- and filename-safe tokens (the
// checkpoint file is named after the tenant).
var tenantName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// maxBodyBytes bounds an ingest or admin request body.
const maxBodyBytes = 8 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// timed wraps a query handler with a per-endpoint latency histogram and,
// while a trace is active, a per-request child span under the serve root.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.cfg.Obs.Histogram(fmt.Sprintf("fenrir_serve_query_seconds{endpoint=%q}", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sp := s.cfg.Obs.TraceRoot().Child("request")
		sp.SetAttr("endpoint", endpoint)
		h(w, r)
		sp.End()
		hist.ObserveSince(t0)
	}
}

// retryAfterEstimate converts a queue backlog and the tenant's recent
// mean append duration into a Retry-After value: how long until the
// worker has plausibly drained the backlog, ceiling-rounded to whole
// seconds and floored at 1 s. With no throughput history (a cold tenant)
// it returns the 1 s floor.
func retryAfterEstimate(pending int, meanAppend time.Duration) int {
	if pending <= 0 || meanAppend <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(pending) * meanAppend.Seconds()))
	if secs < 1 {
		return 1
	}
	return secs
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.isDraining()})
	})
	mux.HandleFunc("GET /status", s.timed("server-status", s.handleServerStatus))
	mux.Handle("GET /metrics", obs.Handler(s.cfg.Obs))
	mux.HandleFunc("GET /v1/tenants", s.timed("tenants", s.handleListTenants))
	mux.HandleFunc("PUT /v1/tenants/{name}", s.handleCreateTenant)
	mux.HandleFunc("GET /v1/tenants/{name}", s.timed("status", s.withTenant(s.handleStatus)))
	mux.HandleFunc("POST /v1/tenants/{name}/observations", s.withTenant(s.handleIngest))
	mux.HandleFunc("GET /v1/tenants/{name}/mode", s.timed("mode", s.withTenant(s.handleMode)))
	mux.HandleFunc("GET /v1/tenants/{name}/events", s.timed("events", s.withTenant(s.handleEvents)))
	mux.HandleFunc("GET /v1/tenants/{name}/events/{at}/explain", s.timed("explain", s.withTenant(s.handleExplain)))
	mux.HandleFunc("GET /v1/tenants/{name}/heatmap", s.timed("heatmap", s.withTenant(s.handleHeatmap)))
	mux.HandleFunc("GET /v1/tenants/{name}/transitions", s.timed("transitions", s.withTenant(s.handleTransitions)))
	mux.HandleFunc("GET /v1/tenants/{name}/flows", s.timed("flows", s.withTenant(s.handleFlows)))
	mux.HandleFunc("POST /v1/tenants/{name}/checkpoint", s.withTenant(s.handleCheckpoint))
	mux.Handle("GET /debug/trace", obs.TraceHandler(s.cfg.Obs))
	mux.Handle("GET /debug/events", obs.EventsHandler(s.cfg.Obs))
	// Telemetry history (nil store when -history-every 0: queries 404,
	// alerts list is empty — the routes exist either way so probes get a
	// consistent surface).
	mux.Handle("GET /v1/query", history.QueryHandler(s.hist))
	mux.Handle("GET /v1/alerts", history.AlertsHandler(s.hist))
	mux.Handle("GET /debug/timeline", history.TimelineHandler(s.hist))
	return mux
}

// rejectIngest counts one rejected ingest request, both per reason
// (fenrir_serve_rejected_total{reason=...}) and in the unlabeled
// aggregate that feeds the ingest-availability burn-rate rule.
func (s *Server) rejectIngest(reason string) {
	s.met.ingestRejected.Inc()
	s.met.rejected[reason].Inc()
}

// withTenant resolves the {name} path value or 404s.
func (s *Server) withTenant(h func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.tenant(r.PathValue("name"))
		if t == nil {
			writeErr(w, http.StatusNotFound, "unknown tenant %q", r.PathValue("name"))
			return
		}
		h(w, r, t)
	}
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name    string `json:"name"`
		History int    `json:"history"`
		Appends uint64 `json:"appends"`
		Events  uint64 `json:"events"`
	}
	out := []entry{}
	for _, name := range s.tenantNames() {
		t := s.tenant(name)
		if t == nil {
			continue
		}
		snap := t.mon.Snapshot()
		out = append(out, entry{Name: name, History: snap.History, Appends: snap.Appends, Events: snap.Events})
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !tenantName.MatchString(name) {
		writeErr(w, http.StatusBadRequest, "invalid tenant name %q", name)
		return
	}
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var spec TenantSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "parse spec: %v", err)
		return
	}
	mon, err := monitorFromSpec(spec, s.cfg.DefaultWindow)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// insert re-checks the draining flag under the table lock — the
	// same lock Drain holds to set it — so a create cannot slip between
	// the isDraining check above and the insert and leave a running,
	// never-drained tenant behind (the old create-vs-drain TOCTOU).
	if _, err := s.insert(name, mon); err != nil {
		switch {
		case errors.Is(err, errDraining):
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
		case errors.Is(err, errExists):
			writeErr(w, http.StatusConflict, "tenant %q already exists", name)
		default:
			writeErr(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.setTenantGauge()
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": name, "networks": len(spec.Networks),
	})
}

func monitorFromSpec(spec TenantSpec, defaultWindow int) (*core.Monitor, error) {
	if len(spec.Networks) == 0 {
		return nil, fmt.Errorf("spec: networks are required")
	}
	if spec.Start.IsZero() {
		return nil, fmt.Errorf("spec: start is required")
	}
	if spec.IntervalSeconds == 0 {
		spec.IntervalSeconds = 240
	}
	if spec.IntervalSeconds < 0 {
		return nil, fmt.Errorf("spec: interval_seconds must be positive")
	}
	if int64(spec.IntervalSeconds) > math.MaxInt64/int64(time.Second) {
		// time.Duration would wrap negative, and NewSchedule panics on it.
		return nil, fmt.Errorf("spec: interval_seconds %d overflows a duration", spec.IntervalSeconds)
	}
	if spec.Epochs == 0 {
		spec.Epochs = 1 << 20
	}
	if spec.Epochs < 0 {
		return nil, fmt.Errorf("spec: epochs must be positive")
	}
	if spec.Weights != nil && len(spec.Weights) != len(spec.Networks) {
		return nil, fmt.Errorf("spec: %d weights for %d networks", len(spec.Weights), len(spec.Networks))
	}
	if err := core.CheckWeights(spec.Weights); err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	mode, err := parseUnknownMode(spec.UnknownMode, "unknown_mode")
	if err != nil {
		return nil, err
	}
	detect := core.DefaultDetectOptions()
	detect.Mode = mode
	if d := spec.Detect; d != nil {
		if d.Window > 0 {
			detect.Window = d.Window
		}
		if d.MinDrop > 0 {
			detect.MinDrop = d.MinDrop
		}
		if d.Cooldown > 0 {
			detect.Cooldown = d.Cooldown
		}
		if d.Mode != "" {
			if detect.Mode, err = parseUnknownMode(d.Mode, "detect.mode"); err != nil {
				return nil, err
			}
		}
	}
	window := spec.Window
	if window == 0 {
		window = defaultWindow
	}
	if window < 0 {
		return nil, fmt.Errorf("spec: window must be non-negative")
	}
	space, err := core.TryNewSpace(spec.Networks)
	if err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	sched := timeline.NewSchedule(spec.Start.UTC(), time.Duration(spec.IntervalSeconds)*time.Second, spec.Epochs)
	return core.NewMonitorOpts(space, sched, core.MonitorOptions{
		Weights: spec.Weights, Mode: mode, Detect: detect, Window: window,
	}), nil
}

// parseUnknownMode maps a wire mode string to core.UnknownMode; field
// names the spec field in errors.
func parseUnknownMode(s, field string) (core.UnknownMode, error) {
	switch s {
	case "", "pessimistic":
		return core.PessimisticUnknown, nil
	case "known-only":
		return core.KnownOnly, nil
	default:
		return 0, fmt.Errorf("spec: %s %q (want pessimistic or known-only)", field, s)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, t *tenant) {
	snap := t.mon.Snapshot()
	t.mu.Lock()
	lastAccepted, hasAccepted := t.lastAccepted, t.hasAccepted
	pending := t.pending
	t.mu.Unlock()
	out := map[string]any{
		"name":           t.name,
		"history":        snap.History,
		"appends":        snap.Appends,
		"events":         snap.Events,
		"has_event":      snap.HasEvent,
		"pending":        pending,
		"queue_capacity": cap(t.queue),
		"mean_ingest_us": float64(snap.MeanIngest().Microseconds()),
		"networks":       t.mon.Space().NumNetworks(),
		"window":         snap.Window,
		"evictions":      snap.Evictions,
		// Per-tenant SLO telemetry: count/sum/p50/p90/p99 rollups of the
		// admission, lag, depth, and checkpoint histograms.
		"slo": t.slo(),
	}
	if snap.HasEvent {
		out["last_event"] = int64(snap.LastEvent)
	}
	if hasAccepted {
		out["last_accepted"] = int64(lastAccepted)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleIngest is the write path: body → fault seam → JSON → vector →
// admission. Admission verdicts are synchronous, so the producer's
// response always reflects what the daemon actually did with the
// observation.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, t *tenant) {
	t0 := time.Now()
	sp := s.cfg.Obs.TraceRoot().Child("request")
	sp.SetAttr("endpoint", "ingest")
	sp.SetAttr("tenant", t.name)
	defer sp.End()
	// Every ingest POST lands here, accepted or not: the denominator of
	// the ingest-availability burn-rate rule.
	s.met.ingestRequests.Inc()
	if s.isDraining() {
		s.rejectIngest("draining")
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		s.rejectIngest("read")
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}

	// The fault seam: the observation rides the same degraded substrate
	// as every other measurement. A dropped datagram is reported as 503
	// (the honest outcome — the daemon never saw it); a corrupted one
	// usually fails JSON parsing below and lands in quarantine.
	inj := s.cfg.Faults
	body, drop, dup := inj.Datagram("serve", body)
	if drop {
		s.rejectIngest("dropped")
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "observation dropped by fault injection")
		return
	}

	var ob Observation
	if err := json.Unmarshal(body, &ob); err != nil {
		inj.Quarantine("serve-malformed", 1)
		s.rejectIngest("malformed")
		writeErr(w, http.StatusBadRequest, "parse observation: %v", err)
		return
	}
	if ob.Epoch < 0 {
		s.rejectIngest("malformed")
		writeErr(w, http.StatusBadRequest, "epoch %d is negative", ob.Epoch)
		return
	}
	// Resolve every network before admission; admit interns the sites
	// only once it accepts the epoch.
	space := t.mon.Space()
	cells := make([]siteCell, 0, len(ob.Sites))
	for net, site := range ob.Sites {
		n := space.NetworkIndex(net)
		if n < 0 {
			inj.Quarantine("serve-unknown-network", 1)
			s.rejectIngest("malformed")
			writeErr(w, http.StatusBadRequest, "unknown network %q", net)
			return
		}
		cells = append(cells, siteCell{n, site})
	}
	// Cells go in network order, not the decoded map's random one: the
	// injector's seeded site draws and its stuck-site memory follow the
	// order it labels them in, and admit interns new sites in that order,
	// so one feed (and fault seed) gives one fault sequence and one site
	// alphabet.
	slices.SortFunc(cells, func(a, b siteCell) int { return cmp.Compare(a.net, b.net) })
	for i := range cells {
		cells[i].site = inj.SiteLabel("serve", cells[i].site)
	}
	epoch := timeline.Epoch(ob.Epoch)

	admitErr, full := t.admit(epoch, cells)
	if full {
		s.rejectIngest("backpressure")
		// Retry-After is an estimate of queue-drain time from recent
		// append throughput, not a constant: a slow tenant's producers
		// back off proportionally harder.
		retry := t.retryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.cfg.Obs.Logger().Warn("ingest backpressure",
			"tenant", t.name, "epoch", ob.Epoch,
			"queue_capacity", cap(t.queue), "retry_after_s", retry)
		writeErr(w, http.StatusTooManyRequests, "ingest queue full (%d deep)", cap(t.queue))
		return
	}
	if admitErr != nil {
		var dupErr *core.DuplicateEpochError
		var oooErr *core.OutOfOrderEpochError
		switch {
		case errors.As(admitErr, &dupErr):
			s.rejectIngest("duplicate")
			writeErr(w, http.StatusBadRequest, "%v", admitErr)
		case errors.As(admitErr, &oooErr):
			s.rejectIngest("order")
			writeErr(w, http.StatusBadRequest, "%v", admitErr)
		default:
			s.rejectIngest("draining")
			writeErr(w, http.StatusServiceUnavailable, "%v", admitErr)
		}
		return
	}
	if dup {
		// The fault model delivered the datagram twice; the second copy
		// must bounce off the duplicate-epoch check like any replay. The
		// request itself was accepted, so only the per-reason counter
		// moves — not the request-level rejected aggregate.
		if dupErr, _ := t.admit(epoch, cells); dupErr != nil {
			s.met.rejected["duplicate"].Inc()
		}
	}
	// Admission latency: request arrival to accepted verdict, recorded
	// per tenant (governed) and daemon-wide (never governed).
	t.admitHist.ObserveSince(t0)
	s.met.admitSeconds.ObserveSince(t0)
	writeJSON(w, http.StatusAccepted, map[string]any{"accepted": true, "epoch": ob.Epoch})
}

func (s *Server) handleMode(w http.ResponseWriter, _ *http.Request, t *tenant) {
	if t.mon.Len() == 0 {
		writeErr(w, http.StatusNotFound, "tenant %q has no observations", t.name)
		return
	}
	// LiveModes serves from the live engine: the first /mode after an
	// append re-clusters the tenant's cached Φ triangle (no dense
	// matrix), and repeat queries reuse that result. Byte-identical to
	// the batch pipeline with default adaptive options, pinned by the
	// core equivalence tests. The newest row is the result's own last
	// one: an append may land after LiveModes returns.
	modes := t.mon.LiveModes()
	cur := modes.ModeOf(modes.Matrix.N - 1)
	if cur == nil {
		writeErr(w, http.StatusNotFound, "latest observation is in no mode")
		return
	}
	ranges := make([]map[string]int64, 0, len(cur.Ranges))
	for _, rg := range cur.Ranges {
		ranges = append(ranges, map[string]int64{"from": int64(rg.From), "to": int64(rg.To)})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode_id":     cur.ID,
		"epochs":      len(cur.Epochs),
		"ranges":      ranges,
		"phi_lo":      cur.InternalLo,
		"phi_hi":      cur.InternalHi,
		"threshold":   modes.Threshold,
		"modes_total": len(modes.Modes),
	})
}

// handleEvents lists the tenant's change events. The monitor replays
// its detector over the retained history's cached Φ, so the answer
// depends only on ingested observations — a warm-restarted daemon
// reports the identical event list without having witnessed the events
// live. With ?explain=1 each listed event carries its full provenance,
// byte-identical to the one Append produced.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, t *tenant) {
	events := t.mon.Events(intQuery(r, "n", 20), intQuery(r, "explain", 0) != 0)
	out := make([]map[string]any, 0, len(events))
	for _, ev := range events {
		out = append(out, eventJSON(ev))
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": out})
}

// handleExplain serves one event's full provenance by epoch:
// GET /v1/tenants/{name}/events/{at}/explain.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, t *tenant) {
	at, err := strconv.ParseInt(r.PathValue("at"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "epoch %q is not an integer", r.PathValue("at"))
		return
	}
	ev, ok := t.mon.EventAt(timeline.Epoch(at))
	if !ok {
		writeErr(w, http.StatusNotFound, "no change event at epoch %d", at)
		return
	}
	writeJSON(w, http.StatusOK, eventJSON(ev))
}

// eventJSON renders a change event for the wire, with its explanation
// when it carries one.
func eventJSON(ev core.ChangeEvent) map[string]any {
	e := map[string]any{
		"at":        int64(ev.At),
		"phi":       ev.Phi,
		"baseline":  ev.Baseline,
		"magnitude": ev.Magnitude,
	}
	if ev.Explanation != nil {
		e["explanation"] = explanationJSON(ev.Explanation)
	}
	return e
}

// explanationJSON renders an Explanation for the wire with stable keys.
func explanationJSON(ex *core.Explanation) map[string]any {
	contributors := make([]map[string]any, 0, len(ex.Contributors))
	for _, c := range ex.Contributors {
		contributors = append(contributors, map[string]any{
			"network": c.Network, "from": c.From, "to": c.To, "weight": c.Weight,
		})
	}
	flows := make([]map[string]any, 0, len(ex.TopFlows))
	for _, f := range ex.TopFlows {
		flows = append(flows, map[string]any{"from": f.From, "to": f.To, "count": f.Count})
	}
	return map[string]any{
		"verdict":        ex.Label(),
		"recurrence":     ex.Recurrence,
		"matched_mode":   ex.MatchedMode,
		"mode_phi":       ex.ModePhi,
		"mode_count":     ex.ModeCount,
		"contributors":   contributors,
		"changed_count":  ex.ChangedCount,
		"changed_weight": ex.ChangedWeight,
		"moved":          ex.Moved,
		"stayed":         ex.Stayed,
		"unobserved":     ex.Unobserved,
		"total":          ex.Total,
		"went_unknown":   ex.WentUnknown,
		"became_known":   ex.BecameKnown,
		"top_flows":      flows,
	}
}

// handleServerStatus is the daemon-level rollup: tenant fleet shape plus
// a runtime health block (goroutines, heap, GC pause p99) so load tests
// can correlate SLO drift with runtime pressure.
func (s *Server) handleServerStatus(w http.ResponseWriter, _ *http.Request) {
	var history int
	var appends, events uint64
	names := s.tenantNames()
	for _, name := range names {
		t := s.tenant(name)
		if t == nil {
			continue
		}
		snap := t.mon.Snapshot()
		history += snap.History
		appends += snap.Appends
		events += snap.Events
	}
	out := map[string]any{
		"tenants":       len(names),
		"history":       history,
		"appends":       appends,
		"events":        events,
		"pending":       s.pending.Load(),
		"draining":      s.isDraining(),
		"drain_seconds": time.Duration(s.drainNanos.Load()).Seconds(),
		"runtime":       obs.ReadRuntimeHealth(),
	}
	if s.hist != nil {
		// The self-observation block: what the daemon's own alert engine
		// currently believes, plus sampler shape for operators judging how
		// much history backs the verdict.
		firing := s.hist.Firing()
		if firing == nil {
			firing = []string{}
		}
		out["alerts"] = map[string]any{
			"rules":    len(s.hist.Alerts()),
			"firing":   firing,
			"samples":  s.hist.Ticks(),
			"interval": s.hist.Interval().String(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request, t *tenant) {
	m := t.mon.Matrix()
	if m.N == 0 {
		writeErr(w, http.StatusNotFound, "tenant %q has no observations", t.name)
		return
	}
	row := intQuery(r, "row", m.N-1)
	if row < 0 || row >= m.N {
		writeErr(w, http.StatusBadRequest, "row %d outside [0,%d)", row, m.N)
		return
	}
	phi := make([]float64, m.N)
	for j := 0; j < m.N; j++ {
		phi[j] = m.At(row, j)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"row": row, "epoch": m.Epochs[row], "epochs": m.Epochs, "phi": phi,
	})
}

// pickPair resolves the from/to query epochs against the history,
// defaulting to the latest adjacent pair.
func pickPair(r *http.Request, t *tenant) (a, b *core.Vector, err error) {
	series := t.mon.Series()
	if len(series.Vectors) < 2 {
		return nil, nil, fmt.Errorf("need at least 2 observations, have %d", len(series.Vectors))
	}
	byEpoch := func(e int) *core.Vector {
		for _, v := range series.Vectors {
			if int64(v.T) == int64(e) {
				return v
			}
		}
		return nil
	}
	last := series.Vectors[len(series.Vectors)-1]
	prev := series.Vectors[len(series.Vectors)-2]
	from, to := intQuery(r, "from", int(prev.T)), intQuery(r, "to", int(last.T))
	if a = byEpoch(from); a == nil {
		return nil, nil, fmt.Errorf("no observation at epoch %d", from)
	}
	if b = byEpoch(to); b == nil {
		return nil, nil, fmt.Errorf("no observation at epoch %d", to)
	}
	return a, b, nil
}

func (s *Server) handleTransitions(w http.ResponseWriter, r *http.Request, t *tenant) {
	a, b, err := pickPair(r, t)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	tm := core.Transition(a, b, t.mon.Weights())
	rows := make(map[string]map[string]float64, len(tm.Sites))
	for _, site := range tm.Sites {
		if row := tm.Row(site); len(row) > 0 {
			rows[site] = row
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"from":       int64(a.T),
		"to":         int64(b.T),
		"sites":      tm.Sites,
		"moved":      tm.Moved(),
		"stayed":     tm.Stayed(),
		"unobserved": tm.Unobserved(),
		"total":      tm.Total(),
		"rows":       rows,
	})
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request, t *tenant) {
	a, b, err := pickPair(r, t)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	k := intQuery(r, "k", 10)
	flows := core.Transition(a, b, t.mon.Weights()).LargestFlows(k)
	out := make([]map[string]any, 0, len(flows))
	for _, f := range flows {
		out = append(out, map[string]any{"from": f.From, "to": f.To, "count": f.Count})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"from": int64(a.T), "to": int64(b.T), "flows": out,
	})
}

// handleCheckpoint flushes the queue and writes a snapshot covering
// every observation accepted before the request.
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request, t *tenant) {
	if s.cfg.SnapshotDir == "" {
		writeErr(w, http.StatusConflict, "no -snapshot-dir configured")
		return
	}
	// A draining daemon writes each tenant's final checkpoint itself.
	// One that passed this check and is still writing cannot land over
	// the final one: tenant.ckptMu orders a tenant's checkpoints from
	// taking the state to the rename.
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	t.flush()
	size, err := t.checkpoint()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path": t.snapshotPath(), "bytes": size, "history": t.mon.Len(),
	})
}

func intQuery(r *http.Request, key string, def int) int {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return def
	}
	return n
}
