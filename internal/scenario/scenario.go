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

// Run is the part of every scenario config that callers set the same way
// for every study: the scenario seed, the similarity worker pool, the
// fault layer and the instrumentation registry. Each *Config embeds it.
type Run struct {
	Seed uint64
	// Parallelism sizes the similarity-matrix worker pool (0 = all
	// cores, 1 = serial); the matrix is bit-identical at any setting.
	Parallelism int
	// Faults selects an injected-fault profile (zero = no fault layer and
	// byte-identical output); FaultSeed seeds the injector, 0 deriving one
	// from Seed. See internal/faults.
	Faults    faults.Profile
	FaultSeed uint64
	// Obs receives pipeline instrumentation (stage spans and engine
	// metrics); nil disables it with no behavioural change.
	Obs *obs.Registry `json:"-"`
}

// Outcome is the analysis every scenario returns next to its study's own
// figures. Each *Result embeds it.
type Outcome struct {
	Series *core.Series
	// Matrix is Φ over Series, pessimistic and unweighted.
	Matrix *core.SimMatrix
	Modes  *core.ModesResult
	// Faults reports injected faults, retries, and quarantined
	// observations; nil when no fault layer was active.
	Faults *faults.Report
	// Quarantine details what the ingest quarantine removed: fault runs
	// of studies with a known site set only, nil otherwise.
	Quarantine *clean.QuarantineReport
}

// injector builds the run's fault injector: nil (no fault layer at all,
// the byte-identical default) for the zero profile. A zero fault seed
// derives one from the scenario seed so `-faults light` alone is fully
// specified.
func (r Run) injector() *faults.Injector {
	seed := r.FaultSeed
	if seed == 0 {
		seed = r.Seed ^ 0xfa17
	}
	return faults.New(r.Faults, seed, r.Obs)
}

// outcome runs the shared tail of a scenario over its raw series. When a
// fault layer is active and the study knows its site set (valid non-nil),
// the ingest quarantine first maps labels that are neither in valid nor
// the reserved err and other to unknown, and counts them; zero-fault runs
// keep their exact pre-fault-layer pipeline.
// Similarity and clustering then run under their stage spans, with the
// registry threaded into the engine so tile timings and sweep statistics
// land next to the spans; a nil registry makes every obs call a no-op and
// the results bit-identical. Nothing injects after observation ends, so
// the fault report is final here.
func (r Run) outcome(inj *faults.Injector, s *core.Series, valid map[string]bool) Outcome {
	o := Outcome{Series: s}
	if inj != nil && valid != nil {
		o.Series, o.Quarantine = clean.Quarantine(s, func(site string) bool {
			return valid[site] || site == core.SiteError || site == core.SiteOther
		}, r.Obs)
		inj.Quarantine("invalid-site", o.Quarantine.Total)
	}
	spSim := r.Obs.StartSpan("similarity")
	o.Matrix = core.SimilarityMatrixParallel(o.Series, nil, core.PessimisticUnknown,
		core.MatrixOptions{Parallelism: r.Parallelism, Obs: r.Obs, Span: spSim})
	spSim.SetItems(int64(o.Matrix.N) * int64(o.Matrix.N-1) / 2)
	// The engine just published its effective (clamped) pool size.
	spSim.SetWorkers(int(r.Obs.Gauge("fenrir_similarity_workers").Value()))
	spSim.End()
	spCl := r.Obs.StartSpan("cluster")
	opts := core.DefaultAdaptiveOptions()
	opts.Obs = r.Obs
	opts.Span = spCl
	o.Modes = core.DiscoverModes(o.Matrix, opts)
	spCl.End()
	o.Faults = inj.Report()
	return o
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

// date parses a YYYY-MM-DD literal; scenarios use it for the paper's
// event dates and panic on typos at construction time.
func date(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(fmt.Sprintf("scenario: bad date %q: %v", s, err))
	}
	return t
}
