package scenario

import (
	"fmt"
	"time"

	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/measure/atlas"
	"fenrir/internal/netaddr"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// GRootConfig scales the ten-day G-Root/Atlas study (Figure 1, Table 3).
type GRootConfig struct {
	Run
	// EpochMinutes is the measurement cadence; the paper's DNSMON data is
	// four-minute.
	EpochMinutes int
	// Days is the observation length (paper: 10, 2020-03-01 to -09).
	Days int
	// VPs sizes the Atlas mesh (paper: ~8.2k VPs answering).
	VPs int
	// StubsPerRegion scales the topology.
	StubsPerRegion int
	// ConvergenceErrProb is the probability that a VP whose catchment
	// changed this epoch gets no answer while BGP reconverges — the
	// transient err state that dominates Table 3a before resolving in
	// Table 3b.
	ConvergenceErrProb float64
}

// DefaultGRootConfig finishes in a few seconds.
func DefaultGRootConfig(seed uint64) GRootConfig {
	return GRootConfig{
		Run:                Run{Seed: seed},
		EpochMinutes:       4,
		Days:               10,
		VPs:                400,
		StubsPerRegion:     20,
		ConvergenceErrProb: 0.33,
	}
}

// GRootResult carries Figure 1's stack data and Table 3's transitions.
type GRootResult struct {
	Schedule timeline.Schedule
	Outcome
	// DrainTransitions are the transition matrices at the first STR
	// drain: [0] the big STR→NAP shift with transient errors (Table 3a),
	// [1] the completion where errors resolve to NAP (Table 3b).
	DrainTransitions [2]*core.TransitionMatrix
	Events           map[string]timeline.Epoch
}

// RunGRoot executes the G-Root scenario: six sites (CMH, NAP, STR, NRT,
// SAT, HNL), ten days at four-minute cadence, with the events Figure 1
// narrates:
//
//	day 2, 00:00  STR drains (maintenance), reverting 4.5 h later
//	day 4, 02:00  the same drain recurs
//	day 5, 00:00  a third-party change shifts part of CMH's catchment
//	              toward SAT for two days
//	day 6, 12:00  STR drains again and stays down through the end
func RunGRoot(cfg GRootConfig) (*GRootResult, error) {
	if cfg.EpochMinutes <= 0 {
		cfg.EpochMinutes = 4
	}
	if cfg.Days <= 0 {
		cfg.Days = 10
	}
	spGen := cfg.Obs.StartSpan("generate")
	gen := astopo.DefaultGenConfig(cfg.Seed)
	if cfg.StubsPerRegion > 0 {
		gen.StubsPerRegion = cfg.StubsPerRegion
	}
	w := NewWorld(gen, dataplane.DefaultConfig(cfg.Seed^0x6007))

	// Sites announce from regional Tier-2s, the way root instances sit in
	// exchanges and hosting networks: each site's natural catchment is a
	// transit cone, giving the populated catchments of Figure 1.
	na := w.Tier2sInRegion("NA")
	eu := w.Tier2sInRegion("EU")
	as := w.Tier2sInRegion("AS")
	oc := w.Tier2sInRegion("OC")
	svc := bgpsim.NewService("g-root", netaddr.MustParsePrefix("192.112.36.0/24"))
	svc.AddSite("CMH", na[1])
	svc.AddSite("SAT", na[2])
	svc.AddSite("STR", eu[0])
	svc.AddSite("NAP", eu[1])
	svc.AddSite("NRT", as[0])
	svc.AddSite("HNL", oc[0])
	w.Net.AddService(svc, rootHandler("g"))

	perDay := 24 * 60 / cfg.EpochMinutes
	n := perDay * cfg.Days
	sched := timeline.NewSchedule(date("2020-03-01"), time.Duration(cfg.EpochMinutes)*time.Minute, n)

	at := func(day int, hours float64) timeline.Epoch {
		return timeline.Epoch(day*perDay + int(hours*60)/cfg.EpochMinutes)
	}
	drainLen := timeline.Epoch(int(4.5*60) / cfg.EpochMinutes)
	ev := map[string]timeline.Epoch{
		"drain-1":     at(2, 0),
		"revert-1":    at(2, 0) + drainLen,
		"drain-2":     at(4, 2),
		"revert-2":    at(4, 2) + drainLen,
		"third-party": at(5, 0),
		"third-end":   at(7, 0),
		"drain-final": at(6, 12),
	}

	inj := cfg.injector()
	vps := atlas.DeployVPs(w.Net, cfg.VPs, cfg.Seed^0x6a7145)
	mesh := &atlas.Mesh{Net: inj.Wrap(w.Net, "atlas"), Service: "g-root", VPs: vps,
		Backoff: inj.NewBackoff("atlas", 0)}
	space := mesh.Space()

	// Third-party shift: CMH's host tier-2 gains a peering that pulls
	// part of its cone toward SAT's side.
	cmhT2 := na[1]
	satT2 := na[2]
	tpOn := func() {
		if cmhT2 != satT2 && !w.G.Connected(cmhT2, satT2) {
			w.G.AddPeering(cmhT2, satT2)
		}
		// Also depreference CMH slightly at its own provider to nudge
		// shared clients over.
		svc.SetPrepend("CMH", 1)
	}
	tpOff := func() {
		if cmhT2 != satT2 && w.G.Connected(cmhT2, satT2) {
			w.G.RemovePeering(cmhT2, satT2)
		}
		svc.SetPrepend("CMH", 0)
	}

	res := &GRootResult{Schedule: sched, Events: ev}
	spGen.End()
	spObs := cfg.Obs.StartSpan("observe")
	convRand := rng.New(cfg.Seed ^ 0xc0117e47e)
	var vectors []*core.Vector
	var prevRIB, curRIB = (*bgpsim.RIB)(nil), w.Net.ServiceRIB("g-root")
	strDown := false
	for e := 0; e < n; e++ {
		epoch := timeline.Epoch(e)
		esp := spObs.Child("ingest")
		esp.SetAttr("epoch", e)
		changed := false
		switch epoch {
		case ev["drain-1"], ev["drain-2"], ev["drain-final"]:
			if !strDown {
				svc.Drain("STR")
				strDown = true
				changed = true
			}
		case ev["revert-1"], ev["revert-2"]:
			if strDown {
				svc.Enable("STR")
				strDown = false
				changed = true
			}
		case ev["third-party"]:
			tpOn()
			changed = true
		case ev["third-end"]:
			tpOff()
			changed = true
		}
		if changed {
			w.Net.Refresh()
			prevRIB, curRIB = curRIB, w.Net.ServiceRIB("g-root")
		}

		v, _ := mesh.Round(space, epoch)
		// BGP convergence transient: VPs whose catchment just changed may
		// see no answer this epoch; they resolve next epoch (Table 3's
		// err column draining into NAP).
		if changed && prevRIB != nil && curRIB != nil {
			for i, vp := range vps {
				if prevRIB.Site(vp.AS) != curRIB.Site(vp.AS) && convRand.Bool(cfg.ConvergenceErrProb) {
					v.Set(i, core.SiteError)
				}
			}
		}
		vectors = append(vectors, v)
		esp.End()
	}
	spObs.SetItems(int64(len(vectors)))
	spObs.End()
	valid := map[string]bool{
		"CMH": true, "SAT": true, "STR": true, "NAP": true, "NRT": true, "HNL": true,
	}
	res.Outcome = cfg.outcome(inj, core.NewSeries(space, sched, vectors, nil), valid, core.DefaultDetectOptions())

	// Table 3: transitions at the first drain boundary and one epoch
	// later.
	spTr := cfg.Obs.StartSpan("transitions")
	d := ev["drain-1"]
	va, vb, vc := res.Series.At(d-1), res.Series.At(d), res.Series.At(d+1)
	if va == nil || vb == nil || vc == nil {
		spTr.End()
		return nil, fmt.Errorf("groot: drain boundary vectors missing")
	}
	res.DrainTransitions[0] = core.Transition(va, vb, nil)
	res.DrainTransitions[1] = core.Transition(vb, vc, nil)
	spTr.SetItems(2)
	spTr.End()
	return res, nil
}
