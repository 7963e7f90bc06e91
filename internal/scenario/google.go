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

// GoogleConfig scales the Google/EDNS-CS study (Figure 5): two
// discontiguous collection periods, three days in 2013 against a fleet
// that no longer exists, then sixty days in 2024 with weekly front-end
// reshuffles.
type GoogleConfig struct {
	Run
	// Days2013 and Days2024 are the two collection windows.
	Days2013, Days2024 int
	// Prefixes is how many client /24s the ECS sweep covers.
	Prefixes int
	// FleetSize is the number of front-ends per era.
	FleetSize int
	// KeepProb is the cross-generation assignment survival (the paper
	// measures ~0.25 similarity between weeks).
	KeepProb float64
	// DailyChurn is transient day-to-day reassignment (paper: within-week
	// Φ ≈ 0.79 ⇒ ~10 % daily churn).
	DailyChurn float64
	// StubsPerRegion scales the topology.
	StubsPerRegion int
	// LossRate overrides the forwarding-plane loss probability when > 0
	// (the ablation harness raises it to exercise interpolation).
	LossRate float64
}

// DefaultGoogleConfig mirrors the paper's proportions at laptop scale.
func DefaultGoogleConfig(seed uint64) GoogleConfig {
	return GoogleConfig{
		Run: Run{Seed: seed}, Days2013: 3, Days2024: 60,
		Prefixes: 1200, FleetSize: 300,
		KeepProb: 0.25, DailyChurn: 0.10,
		StubsPerRegion: 20,
	}
}

// GoogleResult carries the Figure 5 heatmap and its headline Φ numbers.
type GoogleResult struct {
	Schedule timeline.Schedule
	Outcome
	// Rows2013 is how many leading matrix rows belong to the 2013 era.
	Rows2013 int
	// WithinWeekPhi / CrossWeekPhi / CrossEraPhi summarize the three
	// similarity regimes the paper reports (~0.79 / ~0.25 / ~0).
	WithinWeekPhi, CrossWeekPhi, CrossEraPhi float64
}

// RunGoogle executes the Google scenario. The 2013 period runs against a
// disjoint front-end fleet (era "13"); the 2024 period runs against the
// modern fleet with generational reshuffles, reproducing the paper's
// observation that a decade of aggressive deployment leaves no similarity
// with the old infrastructure.
func RunGoogle(cfg GoogleConfig) (*GoogleResult, error) {
	if cfg.Days2024 <= 0 {
		cfg.Days2024 = 60
	}
	spGen := cfg.Obs.StartSpan("generate")
	gen := astopo.DefaultGenConfig(cfg.Seed)
	if cfg.StubsPerRegion > 0 {
		gen.StubsPerRegion = cfg.StubsPerRegion
	}
	dp := dataplane.DefaultConfig(cfg.Seed ^ 0x60061e)
	dp.LossRate = 0.005
	if cfg.LossRate > 0 {
		dp.LossRate = cfg.LossRate
	}
	w := NewWorld(gen, dp)

	fleet2013 := websim.NewChurnFleet("13", cfg.FleetSize, netaddr.MustParseAddr("198.18.0.0"))
	fleet2024 := websim.NewChurnFleet("24", cfg.FleetSize, netaddr.MustParseAddr("203.0.0.0"))
	idx := websim.FleetIndex(fleet2013, fleet2024)

	pol2013 := &websim.ChurnPolicy{Seed: cfg.Seed, Fleet: fleet2013, FleetEra: "13",
		GenerationLen: 7, KeepProb: cfg.KeepProb, DailyChurn: cfg.DailyChurn}
	pol2024 := &websim.ChurnPolicy{Seed: cfg.Seed, Fleet: fleet2024, FleetEra: "24",
		GenerationLen: 7, KeepProb: cfg.KeepProb, DailyChurn: cfg.DailyChurn}
	site := &websim.Website{Hostname: "www.google.com", Policy: pol2013}

	stubs := w.Stubs()
	host := stubs[len(stubs)-1]
	authAddr := w.G.AS(host).Prefixes[0].Blocks()[0].Host(53)
	w.Net.AddHost(authAddr, site.Handler())

	blocks := w.G.RoutableBlocks()
	var prefixes []netaddr.Prefix
	for i := 0; i < len(blocks) && len(prefixes) < cfg.Prefixes; i += 1 + len(blocks)/maxInt(cfg.Prefixes, 1) {
		prefixes = append(prefixes, blocks[i].Prefix())
	}
	inj := cfg.injector()
	mapper := &ednscs.Mapper{
		Net: inj.Wrap(w.Net, "ednscs"), ObserverAS: stubs[0], ServerAddr: authAddr,
		Hostname: "www.google.com", Prefixes: prefixes,
		DecodeFrontEnd: func(a netaddr.Addr) (string, bool) {
			l, ok := idx[a]
			return l, ok
		},
		Backoff: inj.NewBackoff("ednscs", 1),
	}
	space := mapper.Space()

	// Epoch axis: 2013 rows first, then the 2024 window; the schedule is
	// nominal (the two periods are eleven years apart — the matrix rows
	// simply concatenate them, as the paper's Figure 5 does).
	n := cfg.Days2013 + cfg.Days2024
	sched := timeline.NewSchedule(date("2024-02-17"), daysDur(1), n+1)

	spGen.End()
	spObs := cfg.Obs.StartSpan("observe")
	var vectors []*core.Vector
	for d := 0; d < cfg.Days2013; d++ {
		esp := spObs.Child("ingest")
		esp.SetAttr("epoch", d)
		site.Policy = pol2013
		site.Epoch = d
		vectors = append(vectors, mapper.Sweep(space, timeline.Epoch(d)))
		esp.End()
	}
	for d := 0; d < cfg.Days2024; d++ {
		esp := spObs.Child("ingest")
		esp.SetAttr("epoch", cfg.Days2013+d)
		site.Policy = pol2024
		site.Epoch = d
		vectors = append(vectors, mapper.Sweep(space, timeline.Epoch(cfg.Days2013+d)))
		esp.End()
	}

	spObs.SetItems(int64(len(vectors)))
	spObs.End()

	res := &GoogleResult{Schedule: sched, Rows2013: cfg.Days2013}
	valid := map[string]bool{}
	for _, label := range idx {
		valid[label] = true
	}
	res.Outcome = cfg.outcome(inj, core.NewSeries(space, sched, vectors, nil), valid, core.DefaultDetectOptions())

	// Headline Φ summaries over the 2024 rows.
	o := cfg.Days2013
	var withinSum, crossSum float64
	var withinN, crossN int
	for i := 0; i < cfg.Days2024; i++ {
		for j := i + 1; j < cfg.Days2024; j++ {
			phi := res.Matrix.At(o+i, o+j)
			if i/7 == j/7 {
				withinSum += phi
				withinN++
			} else if j/7 == i/7+1 {
				crossSum += phi
				crossN++
			}
		}
	}
	if withinN > 0 {
		res.WithinWeekPhi = withinSum / float64(withinN)
	}
	if crossN > 0 {
		res.CrossWeekPhi = crossSum / float64(crossN)
	}
	var eraSum float64
	var eraN int
	for i := 0; i < cfg.Days2013; i++ {
		for j := 0; j < cfg.Days2024; j++ {
			eraSum += res.Matrix.At(i, o+j)
			eraN++
		}
	}
	if eraN > 0 {
		res.CrossEraPhi = eraSum / float64(eraN)
	}
	if res.Series.Len() != n {
		return nil, fmt.Errorf("google: expected %d vectors, got %d", n, res.Series.Len())
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
