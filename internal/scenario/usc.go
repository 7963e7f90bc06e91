package scenario

import (
	"fmt"

	"fenrir/internal/astopo"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/measure/traceroute"
	"fenrir/internal/netaddr"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// Paper-faithful AS numbers for the enterprise edge (Figures 7/8 label
// nodes with these).
const (
	ASNUSC       astopo.ASN = 52    // the multi-homed enterprise
	ASNCENIC     astopo.ASN = 2152  // Academic Regional Network A
	ASNLosNettos astopo.ASN = 226   // Academic Regional Network B
	ASNInternet2 astopo.ASN = 11537 // Academic National Network
	ASNNTT       astopo.ASN = 2914
	ASNHE        astopo.ASN = 6939
)

// USCConfig scales the eight-month enterprise traceroute study.
type USCConfig struct {
	Run
	// EpochDays is the scan cadence (paper: a full scan takes ~8 h, run
	// daily).
	EpochDays int
	// StubsPerRegion scales the topology; the hitlist is every routable
	// /24 subsampled by HitlistStride.
	StubsPerRegion int
	HitlistStride  int
	// FocusHop is the analysis hop (paper: hop 3).
	FocusHop int
	// ChurnProb is the per-epoch probability of a background third-party
	// routing wiggle (a distant peering coming or going). Real traceroute
	// series are never identical day over day; the paper's within-mode
	// Phi sits in [0.31, 0.65], not at 1.0.
	ChurnProb float64
}

// DefaultUSCConfig finishes in seconds.
func DefaultUSCConfig(seed uint64) USCConfig {
	return USCConfig{Run: Run{Seed: seed}, EpochDays: 4, StubsPerRegion: 20, HitlistStride: 2, FocusHop: 3, ChurnProb: 0.6}
}

// USCResult carries Figure 2's series/heatmap and Figures 7/8 flows.
type USCResult struct {
	Schedule timeline.Schedule
	Outcome
	// ChangeEpoch is the 2025-01-16 reconfiguration.
	ChangeEpoch timeline.Epoch
	// FlowsBefore/FlowsAfter are hop 1-4 Sankey flows on the epochs
	// either side of the change (Figures 7 and 8).
	FlowsBefore, FlowsAfter map[string]int
	// Hop3Before/Hop3After aggregate the focus-hop catchments.
	Hop3Before, Hop3After map[string]int
}

// RunUSC executes the multi-homed-enterprise scenario: USC (AS52) buys
// transit from CENIC (AS2152, reached via Los Nettos) and directly from
// Los Nettos (AS226). Before 2025-01-16, routing policy sends almost all
// egress through the academic chain Los Nettos → CENIC → Internet2. The
// reconfiguration re-homes Los Nettos onto commercial transit (NTT AS2914
// and Hurricane Electric AS6939), so at hop 3 CENIC collapses from ~80 %
// to a small share and NTT/HE take over — the paper's "huge routing
// change" with Φ(M_i, M_ii) far below either mode's internal similarity.
func RunUSC(cfg USCConfig) (*USCResult, error) {
	if cfg.EpochDays <= 0 {
		cfg.EpochDays = 1
	}
	if cfg.FocusHop <= 0 {
		cfg.FocusHop = 3
	}
	spGen := cfg.Obs.StartSpan("generate")
	gen := astopo.DefaultGenConfig(cfg.Seed)
	if cfg.StubsPerRegion > 0 {
		gen.StubsPerRegion = cfg.StubsPerRegion
	}
	dp := dataplane.DefaultConfig(cfg.Seed ^ 0x05c)
	// One-shot UDP probes with no retry, as a fast scamper scan over
	// millions of targets runs: per-hop losses leave gaps that spatial
	// propagation patches with neighbouring labels, which is why the
	// paper's within-mode Phi sits in [0.31, 0.65] rather than at 1.
	dp.LossRate = 0.12
	w := NewWorld(gen, dp)

	// --- Build the enterprise edge. ---
	tier1s := func(region string) []astopo.ASN {
		var out []astopo.ASN
		for _, a := range w.G.ASNs() {
			as := w.G.AS(a)
			if as.Tier == astopo.Tier1 && as.Region.Name == region {
				out = append(out, a)
			}
		}
		return out
	}
	naT1 := tier1s("NA")
	euT1 := tier1s("EU")
	asT1 := tier1s("AS")
	add := func(asn astopo.ASN, name string, lat, lon float64) {
		w.G.AddAS(&astopo.AS{ASN: asn, Name: name, Tier: astopo.Tier2,
			Region: astopo.NorthAmerica, Lat: lat, Lon: lon})
	}
	add(ASNInternet2, "Internet2", 40, -88)
	add(ASNCENIC, "CENIC", 37, -120)
	add(ASNLosNettos, "LosNettos", 34, -118)
	add(ASNNTT, "NTT", 35, -100)
	add(ASNHE, "HurricaneElectric", 37, -122)
	// Internet2 is the academic national backbone: transit from two
	// North-American tier-1s plus a European one (GEANT-ish reach).
	w.G.AddProviderCustomer(naT1[0], ASNInternet2)
	w.G.AddProviderCustomer(euT1[0], ASNInternet2)
	// CENIC buys from Internet2.
	w.G.AddProviderCustomer(ASNInternet2, ASNCENIC)
	// NTT and HE are commercial transits with broad tier-1 connectivity
	// across regions, so destinations split between them by geography.
	w.G.AddProviderCustomer(naT1[1%len(naT1)], ASNNTT)
	w.G.AddProviderCustomer(asT1[0], ASNNTT)
	w.G.AddProviderCustomer(naT1[0], ASNHE)
	w.G.AddProviderCustomer(euT1[0], ASNHE)
	// Los Nettos: before the change its only transit is CENIC.
	w.G.AddProviderCustomer(ASNCENIC, ASNLosNettos)
	// USC: customer of Los Nettos (primary) and CENIC (direct backup).
	w.G.AddAS(&astopo.AS{ASN: ASNUSC, Name: "USC", Tier: astopo.Stub,
		Region: astopo.NorthAmerica, Lat: 34.02, Lon: -118.29})
	w.G.AddProviderCustomer(ASNLosNettos, ASNUSC)
	w.G.AddProviderCustomer(ASNCENIC, ASNUSC)
	w.G.Originate(ASNUSC, netaddr.MustParsePrefix("128.125.0.0/16"))
	// Policy: strongly prefer the cheap academic path via Los Nettos;
	// a small share of destinations still leaves via CENIC directly.
	w.Pol.LocalPref[ASNUSC] = map[astopo.ASN]int{ASNLosNettos: 140, ASNCENIC: 100}
	w.Net.Refresh()

	days := int(date("2025-04-01").Sub(date("2024-08-01")).Hours() / 24)
	n := days/cfg.EpochDays + 1
	sched := timeline.NewSchedule(date("2024-08-01"), daysDur(cfg.EpochDays), n)
	change := sched.EpochOn("2025-01-16")

	blocks := w.G.RoutableBlocks()
	stride := cfg.HitlistStride
	if stride <= 0 {
		stride = 1
	}
	var hitlist []netaddr.Block
	usc16 := netaddr.MustParsePrefix("128.125.0.0/16")
	for i := 0; i < len(blocks); i += stride {
		// Skip the enterprise's own prefixes: §2.4's micro-catchment
		// filtering for local networks.
		if usc16.ContainsBlock(blocks[i]) {
			continue
		}
		hitlist = append(hitlist, blocks[i])
	}
	inj := cfg.injector()
	prober := traceroute.NewProber(inj.Wrap(w.Net, "traceroute"), ASNUSC, netaddr.MustParseAddr("128.125.1.1"))
	prober.Backoff = inj.NewBackoff("traceroute", 0)
	space := traceroute.Space(hitlist)

	res := &USCResult{Schedule: sched, ChangeEpoch: change}
	spGen.End()
	spObs := cfg.Obs.StartSpan("observe")
	churnRand := rng.New(cfg.Seed ^ 0xc4042)
	allT2 := func() []astopo.ASN {
		var out []astopo.ASN
		for _, a := range w.G.ASNs() {
			if w.G.AS(a).Tier == astopo.Tier2 && a != ASNCENIC && a != ASNLosNettos &&
				a != ASNNTT && a != ASNHE && a != ASNInternet2 {
				out = append(out, a)
			}
		}
		return out
	}()
	var vectors []*core.Vector
	var tracesBefore, tracesAfter []traceroute.Trace
	for e := 0; e < n; e++ {
		epoch := timeline.Epoch(e)
		esp := spObs.Child("ingest")
		esp.SetAttr("epoch", e)
		// Background Internet weather: distant peerings flap, moving a
		// small share of hop-3 labels each epoch.
		if cfg.ChurnProb > 0 && churnRand.Bool(cfg.ChurnProb) && len(allT2) >= 2 {
			a := allT2[churnRand.Intn(len(allT2))]
			b := allT2[churnRand.Intn(len(allT2))]
			if a != b {
				if w.G.Connected(a, b) {
					w.G.RemovePeering(a, b)
				} else {
					w.G.AddPeering(a, b)
				}
				w.Net.Refresh()
			}
		}
		if epoch == change {
			// The reconfiguration: Los Nettos re-homes onto NTT and HE;
			// its CENIC transit is kept but depreferenced, and USC's
			// direct CENIC link is demoted further.
			w.G.AddProviderCustomer(ASNNTT, ASNLosNettos)
			w.G.AddProviderCustomer(ASNHE, ASNLosNettos)
			// NTT and HE at equal preference: destinations split between
			// them by AS-path length (their tier-1 attachments differ by
			// region), CENIC keeps only what the others cannot shorten.
			w.Pol.LocalPref[ASNLosNettos] = map[astopo.ASN]int{
				ASNNTT: 120, ASNHE: 120, ASNCENIC: 90,
			}
			w.Pol.LocalPref[ASNUSC][ASNCENIC] = 80
			w.Net.Refresh()
		}
		traces := prober.Scan(hitlist, epoch)
		v, verr := traceroute.VectorAtHop(space, traces, cfg.FocusHop, epoch)
		if verr != nil {
			// A trace targeting something outside the space is quarantined,
			// not fatal: the vector covers the remaining destinations.
			inj.Quarantine("trace-not-in-space", 1)
		}
		vectors = append(vectors, v)
		if epoch == change-1 {
			tracesBefore = traces
		}
		if epoch == change+1 {
			tracesAfter = traces
		}
		esp.End()
	}
	if tracesBefore == nil || tracesAfter == nil {
		spObs.End()
		return nil, fmt.Errorf("usc: change epoch %d outside schedule", change)
	}
	spObs.SetItems(int64(len(vectors)))
	spObs.End()

	// Hop labels form no known site set, so fault runs skip the
	// quarantine.
	res.Outcome = cfg.outcome(inj, core.NewSeries(space, sched, vectors, nil), nil, core.DefaultDetectOptions())
	spTr := cfg.Obs.StartSpan("transitions")
	res.FlowsBefore = traceroute.FlowsAtHops(tracesBefore, 1, 4)
	res.FlowsAfter = traceroute.FlowsAtHops(tracesAfter, 1, 4)
	res.Hop3Before = res.Series.At(change - 1).Aggregate()
	res.Hop3After = res.Series.At(change + 1).Aggregate()
	spTr.SetItems(int64(len(tracesBefore) + len(tracesAfter)))
	spTr.End()
	return res, nil
}
