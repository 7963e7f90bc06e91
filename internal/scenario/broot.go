package scenario

import (
	"fmt"
	"time"

	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/latency"
	"fenrir/internal/measure/atlas"
	"fenrir/internal/measure/verfploeter"
	"fenrir/internal/netaddr"
	"fenrir/internal/timeline"
	"fenrir/internal/wire"
)

// BRootConfig scales the five-year B-Root/Verfploeter study (Figure 3,
// Figure 4).
type BRootConfig struct {
	Run
	// EpochDays is the observation cadence: 1 reproduces the paper's
	// daily Verfploeter collections (~1950 epochs over five years); 7
	// runs weekly for quick experiments.
	EpochDays int
	// StubsPerRegion scales the topology (and thereby the hitlist).
	StubsPerRegion int
	// HitlistStride subsamples the routable /24s (1 = all).
	HitlistStride int
	// LatencyEvery runs the Atlas RTT collection every k epochs
	// (0 disables Figure 4 data).
	LatencyEvery int
	// AtlasVPs sizes the RTT mesh.
	AtlasVPs int
}

// DefaultBRootConfig returns a configuration that finishes in seconds.
func DefaultBRootConfig(seed uint64) BRootConfig {
	return BRootConfig{
		Run:            Run{Seed: seed},
		EpochDays:      7,
		StubsPerRegion: 30,
		HitlistStride:  2,
		LatencyEvery:   4,
		AtlasVPs:       150,
	}
}

// BRootResult carries everything Figures 3 and 4 need.
type BRootResult struct {
	Schedule timeline.Schedule
	Outcome
	// Latency is the per-site p90 RTT series (Figure 4); epochs align
	// with Series epochs where collected.
	Latency *latency.SiteSeries
	// Events records the scripted epochs for cross-checking: keys are
	// event names ("add-sites", "prepend-lax", "ari-shutdown", ...).
	Events map[string]timeline.Epoch
	// GapRange is the collection outage [from, to).
	GapRange timeline.Range
	// PolarizationRate is the fraction of Atlas VPs that were polarized
	// (routed to a site at least twice as far, in latency, as their best
	// alternative) on the untouched six-site layout before any traffic
	// engineering — the paper's ARI clients at 200+ ms are exactly these.
	PolarizationRate float64
	// PolarizedCount is the number of flagged VPs behind the rate.
	PolarizedCount int
}

// RunBRoot executes the B-Root scenario: five years (2019-09-01 to
// 2024-12-31) of anycast catchment censuses with the paper's narrated
// service changes:
//
//	2020-02-15  three new sites SIN, IAD, AMS        (mode i → ii)
//	2020-04-10  LAX prepended ×2, clients disperse   (mode ii → iii)
//	2021-03-01  ARI relocates within its country      (mode iii → iv)
//	2022-09-16, 2023-02-12, 2023-04-13  third-party transit changes
//	            (sub-modes iv.a–iv.d, small Φ dips)
//	2023-03-06  ARI shut down (Figure 4: its latency vanishes)
//	2023-05-01, 2023-05-24  SCL enabled briefly (routing experiments)
//	2023-06-29  SCL enabled permanently
//	2023-07-05 .. 2023-12-01  collection outage (blank heatmap band)
//	2023-12-01  all prepends removed: LAX regains most clients — the
//	            recurrence of mode (i) the paper highlights (mode v)
//	2024-06-01  MIA retired, LAX lightly prepended    (mode v → vi)
func RunBRoot(cfg BRootConfig) (*BRootResult, error) {
	if cfg.EpochDays <= 0 {
		cfg.EpochDays = 7
	}
	spGen := cfg.Obs.StartSpan("generate")
	gen := astopo.DefaultGenConfig(cfg.Seed)
	if cfg.StubsPerRegion > 0 {
		gen.StubsPerRegion = cfg.StubsPerRegion
	}
	// North America is weighted 5x: B-Root's real client population is
	// heavily concentrated there, and the paper's mode (i)~(v) recurrence
	// ("LAX serves most clients in both") depends on that concentration.
	gen.Regions = []astopo.Region{
		astopo.NorthAmerica, astopo.NorthAmerica, astopo.NorthAmerica,
		astopo.NorthAmerica, astopo.NorthAmerica,
		astopo.SouthAmerica, astopo.Europe, astopo.Asia, astopo.Oceania, astopo.Africa,
	}
	dp := dataplane.DefaultConfig(cfg.Seed ^ 0xb007)
	// Verfploeter answers from a bit over half its targets; 0.65 mean
	// propensity puts the joint-response rate (and so the pessimistic-Phi
	// plateau) in the paper's 0.5-0.6 band.
	dp.MeanResponsiveness = 0.65
	w := NewWorld(gen, dp)

	// Sites: LAX and MIA in North America, ARI in South America at
	// start; SIN/IAD/AMS and SCL join per the timeline.
	// Sites announce from regional Tier-2s so their catchments are whole
	// transit cones (see groot.go for the rationale).
	na := w.Tier2sInRegion("NA")
	sa := w.Tier2sInRegion("SA")
	eu := w.Tier2sInRegion("EU")
	as := w.Tier2sInRegion("AS")
	svc := bgpsim.NewService("b-root", netaddr.MustParsePrefix("199.9.14.0/24"))
	svc.AddSite("LAX", na[0])
	svc.AddSite("MIA", na[1])
	svc.AddSite("ARI", sa[0])
	w.Net.AddService(svc, rootHandler("b"))

	days := int(date("2024-12-31").Sub(date("2019-09-01")).Hours() / 24)
	n := days/cfg.EpochDays + 1
	sched := timeline.NewSchedule(date("2019-09-01"), daysDur(cfg.EpochDays), n)

	ep := func(d string) timeline.Epoch { return sched.EpochOn(d) }
	ev := map[string]timeline.Epoch{
		"add-sites":     ep("2020-02-15"),
		"prepend-lax":   ep("2020-04-10"),
		"ari-move":      ep("2021-03-01"),
		"third-party-1": ep("2022-09-16"),
		"third-party-2": ep("2023-02-12"),
		"third-party-3": ep("2023-04-13"),
		"ari-shutdown":  ep("2023-03-06"),
		"scl-test-1":    ep("2023-05-01"),
		"scl-test-2":    ep("2023-05-24"),
		"scl-live":      ep("2023-06-29"),
		"gap-start":     ep("2023-07-12"),
		"gap-end":       ep("2023-12-01"),
		"mode-v":        ep("2023-12-01"),
		"mode-vi":       ep("2024-06-01"),
	}

	blocks := w.G.RoutableBlocks()
	stride := cfg.HitlistStride
	if stride <= 0 {
		stride = 1
	}
	var hitlist []netaddr.Block
	for i := 0; i < len(blocks); i += stride {
		hitlist = append(hitlist, blocks[i])
	}
	inj := cfg.injector()
	mapper := verfploeter.NewMapper(inj.Wrap(w.Net, "verfploeter"), "b-root", hitlist)
	mapper.Backoff = inj.NewBackoff("verfploeter", 1)
	space := mapper.Space()

	var vps []atlas.VP
	var mesh *atlas.Mesh
	if cfg.LatencyEvery > 0 {
		vps = atlas.DeployVPs(w.Net, cfg.AtlasVPs, cfg.Seed^0xa71a5)
		mesh = &atlas.Mesh{Net: inj.Wrap(w.Net, "atlas"), Service: "b-root", VPs: vps,
			Backoff: inj.NewBackoff("atlas", 0)}
	}
	meshSpace := func() *core.Space {
		if mesh == nil {
			return nil
		}
		return mesh.Space()
	}()

	// Third-party events: rewire one NA tier-2's transit. Changing a
	// provider edge multiple hops above the stubs shifts some catchments
	// without any B-Root operator action — the signal Fenrir exists to
	// surface.
	naT2 := w.Tier2sInRegion("NA")
	euT2 := w.Tier2sInRegion("EU")
	tpFlip := func(i int) {
		t2 := naT2[i%len(naT2)]
		alt := euT2[i%len(euT2)]
		if !w.G.Connected(t2, alt) {
			w.G.AddPeering(t2, alt)
		} else {
			w.G.RemovePeering(t2, alt)
		}
	}

	res := &BRootResult{
		Schedule: sched,
		Events:   ev,
		Latency:  latency.NewSiteSeries(),
		GapRange: timeline.Range{From: ev["gap-start"], To: ev["gap-end"]},
	}
	spGen.End()
	spObs := cfg.Obs.StartSpan("observe")
	var vectors []*core.Vector
	sclTransient := false
	for e := 0; e < n; e++ {
		epoch := timeline.Epoch(e)
		esp := spObs.Child("ingest")
		esp.SetAttr("epoch", e)
		changed := false
		apply := func(name string, fn func()) {
			if ev[name] == epoch {
				fn()
				changed = true
			}
		}
		apply("add-sites", func() {
			svc.AddSite("SIN", as[0])
			svc.AddSite("IAD", na[2])
			svc.AddSite("AMS", eu[0])
		})
		apply("prepend-lax", func() { svc.SetPrepend("LAX", 2) })
		apply("ari-move", func() {
			// Mode (iii) -> (iv): ARI relocates within its country, and
			// the operator experiments with prepending at AMS and SIN,
			// dispersing parts of their cones. Mode (v) unwinds all of
			// it, which is what makes (v) resemble (i).
			svc.RemoveSite("ARI")
			svc.AddSite("ARI", sa[1])
			// Mode (iv)'s TE experiments prepend hard enough to displace
			// even the sites' own regional cones; everything unwinds at
			// mode (v).
			svc.SetPrepend("LAX", 4)
			svc.SetPrepend("AMS", 4)
			svc.SetPrepend("SIN", 4)
		})
		apply("third-party-1", func() { tpFlip(0) })
		apply("ari-shutdown", func() { svc.RemoveSite("ARI") })
		apply("third-party-2", func() { tpFlip(1) })
		apply("third-party-3", func() { tpFlip(2) })
		apply("scl-test-1", func() { svc.AddSite("SCL", sa[2]); sclTransient = true })
		apply("scl-test-2", func() { svc.AddSite("SCL", sa[2]); sclTransient = true })
		apply("scl-live", func() { svc.AddSite("SCL", sa[2]) })
		apply("mode-v", func() {
			for _, site := range svc.SiteNames() {
				svc.SetPrepend(site, 0)
			}
		})
		apply("mode-vi", func() {
			// A new mode, not a rerun of (iii)/(iv): MIA retires and LAX
			// is lightly prepended.
			svc.RemoveSite("MIA")
			svc.SetPrepend("LAX", 1)
		})
		if changed {
			w.Net.Refresh()
		}

		inGap := epoch >= ev["gap-start"] && epoch < ev["gap-end"]
		if !inGap {
			v, err := mapper.Census(space, epoch)
			if err != nil {
				return nil, fmt.Errorf("broot: census at epoch %d: %w", e, err)
			}
			vectors = append(vectors, v)
			if mesh != nil && e%cfg.LatencyEvery == 0 {
				mv, rtts := mesh.Round(meshSpace, epoch)
				res.Latency.Append(epoch, latency.BySite(mv, rtts, 90))
			}
			if mesh != nil && epoch == ev["prepend-lax"]-1 {
				// Polarization check on the untouched six-site layout
				// (no traffic engineering yet): compare each VP's
				// measured anycast RTT with a best-case estimate per
				// enabled site. BGP's path-length tie-breaks route some
				// VPs across regions — the paper's ARI story.
				mv, rtts := mesh.Round(meshSpace, epoch)
				perSite := make(map[string]map[int]float64)
				for _, name := range svc.SiteNames() {
					site := svc.Site(name)
					if !site.Enabled {
						continue
					}
					m := make(map[int]float64, len(vps))
					for i, vp := range vps {
						m[i] = w.Net.EstimateRTTms(vp.AS, site.AS)
					}
					perSite[name] = m
				}
				pol := latency.DetectPolarization(mv, rtts, perSite, latency.DefaultPolarizationOptions())
				res.PolarizedCount = len(pol)
				if len(rtts) > 0 {
					res.PolarizationRate = float64(len(pol)) / float64(len(rtts))
				}
			}
		}

		// SCL routing experiments last a single epoch each.
		if sclTransient && (ev["scl-test-1"] == epoch || ev["scl-test-2"] == epoch) {
			svc.RemoveSite("SCL")
			sclTransient = false
			w.Net.Refresh()
		}
		esp.End()
	}

	spObs.SetItems(int64(len(vectors)))
	spObs.End()
	// Fault runs quarantine injected bogus/stuck labels before analysis;
	// zero-fault runs skip the pass entirely (byte-identical pipeline).
	valid := map[string]bool{
		"LAX": true, "MIA": true, "ARI": true, "SIN": true,
		"IAD": true, "AMS": true, "SCL": true,
	}
	res.Outcome = cfg.outcome(inj, core.NewSeries(space, sched, vectors, nil), valid, core.DefaultDetectOptions())
	return res, nil
}

// rootHandler builds the CHAOS/NSID handler a root-server site runs: it
// identifies itself as "<svc><n>-<site>".
func rootHandler(prefix string) dataplane.DNSHandler {
	return func(q *wire.DNSMessage, site string, client astopo.ASN) *wire.DNSMessage {
		resp := &wire.DNSMessage{ID: q.ID, QR: true, AA: true, Questions: q.Questions}
		id := prefix + "1-" + lower(site)
		if rr, err := wire.TXTRecord("hostname.bind", wire.ClassCHAOS, 0, id); err == nil {
			resp.Answers = []wire.RR{rr}
		}
		resp.Additional = []wire.RR{wire.OPTRecord(4096, wire.NSIDOption(id))}
		return resp
	}
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// daysDur converts a day count into a time.Duration.
func daysDur(days int) time.Duration { return time.Duration(days) * 24 * time.Hour }
