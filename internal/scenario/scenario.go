// Package scenario scripts the five studies of Table 2 against the
// simulated Internet: B-Root/Verfploeter (five years of anycast), G-Root/
// Atlas (ten days at four-minute cadence), USC/traceroute (eight months of
// enterprise routing), Google/EDNS-CS and Wiki/EDNS-CS (website catchment
// mapping). Each scenario builds a topology, registers services, walks a
// schedule applying the paper's narrated events (site adds, drains,
// traffic engineering, third-party changes, collection outages), drives
// the corresponding measurement engine every epoch, and returns the
// series plus the derived Fenrir artefacts for its figures and tables.
//
// Everything is deterministic in the scenario seed. Scale knobs shrink
// the paper's millions-of-networks datasets to laptop size without
// changing any code path (see DESIGN.md §11).
package scenario

import (
	"fmt"
	"time"

	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/clean"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
)

// newInjector builds a scenario's fault injector from its config fields:
// nil (no fault layer at all, the byte-identical default) for the zero
// profile. A zero fault seed derives one from the scenario seed so
// `-faults light` alone is fully specified.
func newInjector(seed uint64, prof faults.Profile, faultSeed uint64, reg *obs.Registry) *faults.Injector {
	if faultSeed == 0 {
		faultSeed = seed ^ 0xfa17
	}
	return faults.New(prof, faultSeed, reg)
}

// quarantinePass runs the ingest quarantine over a raw series when a fault
// layer is active: site labels outside valid are mapped to unknown and
// counted. With no injector the series passes through untouched —
// zero-fault runs keep their exact pre-fault-layer pipeline.
func quarantinePass(inj *faults.Injector, s *core.Series, valid map[string]bool, reg *obs.Registry) (*core.Series, *clean.QuarantineReport) {
	if inj == nil {
		return s, nil
	}
	out, rep := clean.Quarantine(s, func(site string) bool { return valid[site] }, reg)
	inj.Quarantine("invalid-site", rep.Total)
	return out, rep
}

// World bundles the topology, policy, and forwarding plane a scenario
// runs on.
type World struct {
	G   *astopo.Graph
	Pol *bgpsim.Policy
	Net *dataplane.Net
}

// NewWorld generates a topology and forwarding plane. The policy starts
// empty; scenarios attach local-pref entries before Refresh.
func NewWorld(gen astopo.GenConfig, dp dataplane.Config) *World {
	g := astopo.Generate(gen)
	pol := &bgpsim.Policy{
		LocalPref: make(map[astopo.ASN]map[astopo.ASN]int),
		Reject:    make(map[astopo.ASN]map[astopo.ASN]bool),
	}
	return &World{G: g, Pol: pol, Net: dataplane.NewNet(g, pol, dp)}
}

// Stubs returns all stub ASes in ASN order.
func (w *World) Stubs() []astopo.ASN {
	var out []astopo.ASN
	for _, a := range w.G.ASNs() {
		if w.G.AS(a).Tier == astopo.Stub {
			out = append(out, a)
		}
	}
	return out
}

// Tier2sInRegion returns the regional transit providers of one region.
func (w *World) Tier2sInRegion(region string) []astopo.ASN {
	var out []astopo.ASN
	for _, a := range w.G.ASNs() {
		as := w.G.AS(a)
		if as.Tier == astopo.Tier2 && as.Region.Name == region {
			out = append(out, a)
		}
	}
	return out
}

// analyze runs the shared similarity→cluster tail of a scenario under
// stage spans, threading the registry into the engine so tile timings
// and sweep statistics land next to the spans. r may be nil (the
// un-instrumented default): every obs call then no-ops and the results
// are bit-identical.
func analyze(r *obs.Registry, s *core.Series, parallelism int) (*core.SimMatrix, *core.ModesResult) {
	spSim := r.StartSpan("similarity")
	m := core.SimilarityMatrixParallel(s, nil, core.PessimisticUnknown,
		core.MatrixOptions{Parallelism: parallelism, Obs: r, Span: spSim})
	spSim.SetItems(int64(m.N) * int64(m.N-1) / 2)
	// The engine just published its effective (clamped) pool size.
	spSim.SetWorkers(int(r.Gauge("fenrir_similarity_workers").Value()))
	spSim.End()
	spCl := r.StartSpan("cluster")
	opts := core.DefaultAdaptiveOptions()
	opts.Obs = r
	opts.Span = spCl
	modes := core.DiscoverModes(m, opts)
	spCl.End()
	return m, modes
}

// date parses a YYYY-MM-DD literal; scenarios use it for the paper's
// event dates and panic on typos at construction time.
func date(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(fmt.Sprintf("scenario: bad date %q: %v", s, err))
	}
	return t
}
