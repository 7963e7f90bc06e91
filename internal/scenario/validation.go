package scenario

import (
	"fmt"
	"sort"

	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/events"
	"fenrir/internal/measure/atlas"
	"fenrir/internal/netaddr"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// ValidationConfig scales the §3 ground-truth study (Table 4).
type ValidationConfig struct {
	Run
	// Epochs is the observation count; the paper watches four months at
	// four-minute cadence — we default to a 30-minute-equivalent series
	// long enough to host all scripted events.
	Epochs int
	// VPs sizes the Atlas mesh used for detection.
	VPs int
	// StubsPerRegion scales the topology.
	StubsPerRegion int
	// Counts of scripted ground-truth event groups, mirroring Table 4:
	// 17 site drains, 2 traffic-engineering changes, 37 internal-only
	// maintenance groups (56 groups, 98 raw entries), plus third-party
	// changes invisible to the operator: 8 coinciding with internal
	// maintenance (the paper's FP? row) and 10 standalone (the (*) row).
	Drains, TE, Internal int
	ThirdPartyCoinciding int
	ThirdPartyStandalone int
	// DetectOpts tunes the detector; zero value uses defaults.
	DetectOpts core.DetectOptions
}

// DefaultValidationConfig mirrors Table 4's event counts.
func DefaultValidationConfig(seed uint64) ValidationConfig {
	return ValidationConfig{
		Run: Run{Seed: seed}, Epochs: 1600, VPs: 150, StubsPerRegion: 20,
		Drains: 17, TE: 2, Internal: 37,
		ThirdPartyCoinciding: 8, ThirdPartyStandalone: 10,
	}
}

// ValidationResult is the reproduced Table 4.
type ValidationResult struct {
	Groups     []events.Group
	Validation events.Validation
	// RawEntries is the ungrouped maintenance-log length (paper: 98).
	RawEntries int
	// Outcome exposes the underlying pipeline artefacts so the CLI can
	// render the usual mode summary and heatmap alongside Table 4; its
	// Changes are the detections Validation scores.
	Outcome
}

// RunValidation executes the ground-truth study: a B-Root-like anycast
// service watched by an Atlas mesh while a scripted maintenance calendar
// unfolds. Site drains and TE changes are externally visible; internal
// maintenance touches nothing; third-party transit flaps shift catchments
// with no operator log entry. Fenrir's detector is then validated against
// the operator's log exactly as §3 does.
func RunValidation(cfg ValidationConfig) (*ValidationResult, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1600
	}
	spGen := cfg.Obs.StartSpan("generate")
	gen := astopo.DefaultGenConfig(cfg.Seed)
	if cfg.StubsPerRegion > 0 {
		gen.StubsPerRegion = cfg.StubsPerRegion
	}
	dp := dataplane.DefaultConfig(cfg.Seed ^ 0x7ab1e4)
	dp.LossRate = 0.002
	w := NewWorld(gen, dp)

	na := w.Tier2sInRegion("NA")
	eu := w.Tier2sInRegion("EU")
	as := w.Tier2sInRegion("AS")
	svc := bgpsim.NewService("b-root", netaddr.MustParsePrefix("199.9.14.0/24"))
	svc.AddSite("LAX", na[0])
	svc.AddSite("IAD", na[1])
	svc.AddSite("AMS", eu[0])
	svc.AddSite("SIN", as[0])
	w.Net.AddService(svc, rootHandler("b"))

	inj := cfg.injector()
	vps := atlas.DeployVPs(w.Net, cfg.VPs, cfg.Seed^0x7a5)
	mesh := &atlas.Mesh{Net: inj.Wrap(w.Net, "atlas"), Service: "b-root", VPs: vps,
		Backoff: inj.NewBackoff("atlas", 0)}
	space := mesh.Space()
	sched := timeline.NewSchedule(date("2023-03-01"), daysDur(1)/48, cfg.Epochs)

	// Pick drain targets among sites that actually hold VPs, so every
	// scripted drain is externally visible in principle.
	rib := w.Net.ServiceRIB("b-root")
	counts := map[string]int{}
	for _, vp := range vps {
		counts[rib.Site(vp.AS)]++
	}
	var drainable []string
	for _, s := range svc.SiteNames() {
		if counts[s] >= 5 {
			drainable = append(drainable, s)
		}
	}
	sort.Strings(drainable)
	if len(drainable) == 0 {
		return nil, fmt.Errorf("validation: no site holds enough VPs")
	}

	// Lay the calendar out deterministically: events spaced evenly with
	// jitter, far enough apart that groups never merge.
	total := cfg.Drains + cfg.TE + cfg.Internal + cfg.ThirdPartyStandalone
	spacing := (cfg.Epochs - 100) / maxInt(total, 1)
	if spacing < 8 {
		return nil, fmt.Errorf("validation: %d epochs too short for %d events", cfg.Epochs, total)
	}
	r := rng.New(cfg.Seed ^ 0xca1e)
	type scripted struct {
		at   timeline.Epoch
		kind events.Kind // SiteDrain / TrafficEngineering / Internal
		tp   bool        // third-party flap (no log entry)
		site string
	}
	var script []scripted
	slot := 50
	addEvent := func(kind events.Kind, tp bool) {
		at := timeline.Epoch(slot + r.Intn(spacing/4))
		slot += spacing
		s := scripted{at: at, kind: kind, tp: tp}
		if kind == events.SiteDrain {
			s.site = drainable[len(script)%len(drainable)]
		}
		script = append(script, s)
	}
	for i := 0; i < cfg.Drains; i++ {
		addEvent(events.SiteDrain, false)
	}
	for i := 0; i < cfg.TE; i++ {
		addEvent(events.TrafficEngineering, false)
	}
	internalIdx := make([]int, 0, cfg.Internal)
	for i := 0; i < cfg.Internal; i++ {
		addEvent(events.Internal, false)
		internalIdx = append(internalIdx, len(script)-1)
	}
	for i := 0; i < cfg.ThirdPartyStandalone; i++ {
		addEvent(events.Internal, true) // kind unused for tp
		script[len(script)-1].kind = events.Internal
	}
	// Third-party flaps coinciding with internal maintenance: same epoch
	// as the first ThirdPartyCoinciding internal groups.
	var coinciding []timeline.Epoch
	for i := 0; i < cfg.ThirdPartyCoinciding && i < len(internalIdx); i++ {
		coinciding = append(coinciding, script[internalIdx[i]].at)
	}
	sort.Slice(script, func(i, j int) bool { return script[i].at < script[j].at })

	// Build the operator log (third-party events have no entries). Some
	// groups have several raw entries, reproducing 98 entries → 56
	// groups.
	var log []events.LogEntry
	operators := []string{"amanda", "bob", "carol", "dave"}
	for gi, s := range script {
		if s.tp {
			continue
		}
		op := operators[gi%len(operators)]
		note := s.kind.String()
		log = append(log, events.LogEntry{At: s.at, Operator: op, Kind: s.kind, Site: s.site, Note: note})
		// ~75% of groups get a second raw entry (start/finish pair).
		if gi%4 != 0 {
			log = append(log, events.LogEntry{At: s.at + 1, Operator: op, Kind: s.kind, Site: s.site, Note: note + "-done"})
		}
	}

	// Third-party machinery: a transit provider of one of the site host
	// networks withdraws the edge for two epochs (a cable cut or transit
	// dispute upstream of the anycast operator). Clients that reached the
	// site through that provider re-converge onto other sites — exactly
	// the kind of change §3 argues Fenrir surfaces while operator logs
	// stay silent.
	siteT2s := []astopo.ASN{na[0], na[1], eu[0], as[0]}
	flapIdx := 0
	flapOn := func() (astopo.ASN, []astopo.ASN) {
		t2 := siteT2s[flapIdx%len(siteT2s)]
		flapIdx++
		providers := append([]astopo.ASN(nil), w.G.AS(t2).Providers...)
		for _, p := range providers {
			w.G.RemoveProviderCustomer(p, t2)
		}
		return t2, providers
	}

	// Index scripted actions by epoch.
	type action struct {
		drainSite string
		te        bool
		tp        bool
	}
	byEpoch := make(map[timeline.Epoch]*action)
	get := func(at timeline.Epoch) *action {
		if a, ok := byEpoch[at]; ok {
			return a
		}
		a := &action{}
		byEpoch[at] = a
		return a
	}
	for _, s := range script {
		switch {
		case s.tp:
			get(s.at).tp = true
		case s.kind == events.SiteDrain:
			get(s.at).drainSite = s.site
		case s.kind == events.TrafficEngineering:
			get(s.at).te = true
		}
	}
	for _, at := range coinciding {
		get(at).tp = true
	}

	// Run the measurement loop.
	spGen.End()
	spObs := cfg.Obs.StartSpan("observe")
	var vectors []*core.Vector
	drainedUntil := map[string]timeline.Epoch{}
	teState := 0
	var undoFlap func()
	var undoAt timeline.Epoch = -1
	for e := 0; e < cfg.Epochs; e++ {
		epoch := timeline.Epoch(e)
		esp := spObs.Child("ingest")
		esp.SetAttr("epoch", e)
		changed := false
		// Scheduled drain reverts (drains last 2 epochs).
		for site, until := range drainedUntil {
			if epoch == until {
				svc.Enable(site)
				delete(drainedUntil, site)
				changed = true
			}
		}
		if undoFlap != nil && epoch == undoAt {
			undoFlap()
			undoFlap = nil
			changed = true
		}
		if a, ok := byEpoch[epoch]; ok {
			if a.drainSite != "" {
				svc.Drain(a.drainSite)
				drainedUntil[a.drainSite] = epoch + 2
				changed = true
			}
			if a.te {
				// Traffic engineering swings LAX's prepending hard enough
				// to re-home a large slice of its catchment.
				teState++
				svc.SetPrepend("LAX", teState%2*3)
				changed = true
			}
			if a.tp {
				t2, providers := flapOn()
				undoFlap = func() {
					for _, p := range providers {
						w.G.AddProviderCustomer(p, t2)
					}
				}
				undoAt = epoch + 2
				changed = true
			}
		}
		if changed {
			w.Net.Refresh()
		}
		v, _ := mesh.Round(space, epoch)
		vectors = append(vectors, v)
		esp.End()
	}

	spObs.SetItems(int64(len(vectors)))
	spObs.End()
	valid := map[string]bool{
		"LAX": true, "IAD": true, "AMS": true, "SIN": true,
	}
	opts := cfg.DetectOpts
	if opts.Window == 0 {
		opts = core.DefaultDetectOptions()
		opts.MinDrop = 0.04
		opts.Cooldown = 4
	}
	out := cfg.outcome(inj, core.NewSeries(space, sched, vectors, nil), valid, opts)
	groups := events.GroupEntries(log, 2)
	return &ValidationResult{
		Groups:     groups,
		Validation: events.Validate(groups, out.Changes, 3),
		RawEntries: len(log),
		Outcome:    out,
	}, nil
}
