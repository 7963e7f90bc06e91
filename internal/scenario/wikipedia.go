package scenario

import (
	"fmt"

	"fenrir/internal/astopo"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/measure/ednscs"
	"fenrir/internal/netaddr"
	"fenrir/internal/timeline"
	"fenrir/internal/websim"
)

// WikipediaConfig scales the Wiki/EDNS-CS study (Figure 6): seven
// geographically pinned sites, six weeks of daily sweeps, with the codfw
// drain-and-return event the paper quantifies.
type WikipediaConfig struct {
	Run
	// Days is the observation window (paper: 2025-03-15 .. 2025-04-26).
	Days int
	// Prefixes is the ECS sweep width.
	Prefixes int
	// ReturnProb is the fraction of displaced clients that come back
	// when codfw recovers (the paper measured ~30 %).
	ReturnProb float64
	// StubsPerRegion scales the topology.
	StubsPerRegion int
}

// DefaultWikipediaConfig mirrors the paper's six weeks.
func DefaultWikipediaConfig(seed uint64) WikipediaConfig {
	return WikipediaConfig{Run: Run{Seed: seed}, Days: 42, Prefixes: 1200, ReturnProb: 0.3, StubsPerRegion: 20}
}

// WikipediaResult carries the Figure 6 artefacts.
type WikipediaResult struct {
	Schedule timeline.Schedule
	Outcome
	// DrainEpoch/RestoreEpoch bound the codfw outage (2025-03-19 .. -26).
	DrainEpoch, RestoreEpoch timeline.Epoch
	// CodfwBefore/During/After are codfw's aggregate catchment sizes in
	// the three phases.
	CodfwBefore, CodfwDuring, CodfwAfter int
	// ReturnedFraction is the share of codfw's original clients that
	// came back after the restore.
	ReturnedFraction float64
}

// RunWikipedia executes the Wikipedia scenario: the seven Wikimedia sites
// (eqiad, codfw, esams, ulsfo, eqsin, drmrs, magru) serve clients by
// geography; codfw is drained on 2025-03-19 and restored on 2025-03-26,
// after which only ~ReturnProb of its displaced clients return — the
// paper's "the new routing result is only 80 % similar to the previous
// one".
func RunWikipedia(cfg WikipediaConfig) (*WikipediaResult, error) {
	if cfg.Days <= 0 {
		cfg.Days = 42
	}
	spGen := cfg.Obs.StartSpan("generate")
	gen := astopo.DefaultGenConfig(cfg.Seed)
	if cfg.StubsPerRegion > 0 {
		gen.StubsPerRegion = cfg.StubsPerRegion
	}
	dp := dataplane.DefaultConfig(cfg.Seed ^ 0x3161)
	// Figure 6's stable modes sit at Φ ∈ [0.93, 0.95]: the residual
	// dissimilarity is one-shot query loss under pessimistic unknown
	// handling, so the loss rate sets the plateau. A query succeeds with
	// (1-loss)^2 (request and response), and a pair of epochs matches
	// when both succeeded: Φ ≈ (1-loss)^8 for a /24... empirically
	// 0.0075 lands the plateau at ~0.94.
	dp.LossRate = 0.012
	w := NewWorld(gen, dp)

	geo := func(p netaddr.Prefix) (float64, float64, bool) {
		as, ok := w.G.OriginOf(p.Addr)
		if !ok {
			return 0, 0, false
		}
		a := w.G.AS(as)
		return a.Lat, a.Lon, true
	}
	pol := websim.NewGeoPolicy(cfg.Seed^0x517e5, geo, cfg.ReturnProb)
	base := netaddr.MustParseAddr("198.35.26.96")
	sites := []struct {
		name     string
		lat, lon float64
	}{
		{"eqiad", 39.0, -77.5},  // Ashburn
		{"codfw", 32.8, -96.8},  // Dallas
		{"esams", 52.3, 4.9},    // Amsterdam
		{"ulsfo", 37.6, -122.4}, // San Francisco
		{"eqsin", 1.35, 103.9},  // Singapore
		{"drmrs", 43.3, 5.4},    // Marseille
		{"magru", -23.5, -46.6}, // São Paulo
	}
	for i, s := range sites {
		pol.AddSite(s.name, base+netaddr.Addr(i), s.lat, s.lon)
	}
	site := &websim.Website{Hostname: "www.wikipedia.org", Policy: pol}

	stubs := w.Stubs()
	host := stubs[len(stubs)-1]
	authAddr := w.G.AS(host).Prefixes[0].Blocks()[0].Host(53)
	w.Net.AddHost(authAddr, site.Handler())

	blocks := w.G.RoutableBlocks()
	var prefixes []netaddr.Prefix
	for i := 0; i < len(blocks) && len(prefixes) < cfg.Prefixes; i += 1 + len(blocks)/maxInt(cfg.Prefixes, 1) {
		prefixes = append(prefixes, blocks[i].Prefix())
	}
	byAddr := make(map[netaddr.Addr]string, len(sites))
	for i, s := range sites {
		byAddr[base+netaddr.Addr(i)] = s.name
	}
	inj := cfg.injector()
	mapper := &ednscs.Mapper{
		Net: inj.Wrap(w.Net, "ednscs"), ObserverAS: stubs[0], ServerAddr: authAddr,
		Hostname: "www.wikipedia.org", Prefixes: prefixes,
		DecodeFrontEnd: func(a netaddr.Addr) (string, bool) {
			l, ok := byAddr[a]
			return l, ok
		},
		Backoff: inj.NewBackoff("ednscs", 0),
	}
	space := mapper.Space()

	sched := timeline.NewSchedule(date("2025-03-15"), daysDur(1), cfg.Days)
	drain := sched.EpochOn("2025-03-19")
	restore := sched.EpochOn("2025-03-26")

	spGen.End()
	spObs := cfg.Obs.StartSpan("observe")
	var vectors []*core.Vector
	for e := 0; e < cfg.Days; e++ {
		epoch := timeline.Epoch(e)
		esp := spObs.Child("ingest")
		esp.SetAttr("epoch", e)
		if epoch == drain {
			pol.Drain("codfw")
		}
		if epoch == restore {
			pol.Restore("codfw")
		}
		site.Epoch = e
		vectors = append(vectors, mapper.Sweep(space, epoch))
		esp.End()
	}

	spObs.SetItems(int64(len(vectors)))
	spObs.End()

	res := &WikipediaResult{Schedule: sched, DrainEpoch: drain, RestoreEpoch: restore}
	valid := map[string]bool{}
	for _, s := range sites {
		valid[s.name] = true
	}
	res.Outcome = cfg.outcome(inj, core.NewSeries(space, sched, vectors, nil), valid, core.DefaultDetectOptions())

	spTr := cfg.Obs.StartSpan("transitions")
	before := res.Series.At(drain - 1)
	during := res.Series.At(drain + 1)
	after := res.Series.At(restore + 1)
	if before == nil || during == nil || after == nil {
		spTr.End()
		return nil, fmt.Errorf("wikipedia: drain epochs outside schedule")
	}
	res.CodfwBefore = before.Aggregate()["codfw"]
	res.CodfwDuring = during.Aggregate()["codfw"]
	res.CodfwAfter = after.Aggregate()["codfw"]
	if res.CodfwBefore > 0 {
		stayed := core.Transition(before, after, nil).At("codfw", "codfw")
		res.ReturnedFraction = stayed / float64(res.CodfwBefore)
	}
	spTr.SetItems(1)
	spTr.End()
	return res, nil
}
