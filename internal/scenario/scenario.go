// Package scenario scripts the five studies of Table 2 against the
// simulated Internet: B-Root/Verfploeter (five years of anycast), G-Root/
// Atlas (ten days at four-minute cadence), USC/traceroute (eight months of
// enterprise routing), Google/EDNS-CS and Wiki/EDNS-CS (website catchment
// mapping). Each scenario builds a topology, registers services, walks a
// schedule applying the paper's narrated events (site adds, drains,
// traffic engineering, third-party changes, collection outages), drives
// the corresponding measurement engine every epoch, and runs Analyze, the
// one Fenrir pipeline the facade re-exports, over the series.
//
// Everything is deterministic in the scenario seed. Scale knobs shrink
// the paper's millions-of-networks datasets to laptop size without
// changing any code path (see DESIGN.md §11).
package scenario

import (
	"fmt"
	"strings"
	"time"

	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/clean"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
	"fenrir/internal/report"
)

// AnalysisOptions configures the full pipeline run by Analyze.
type AnalysisOptions struct {
	// Weights is the per-network weight vector; nil means uniform.
	Weights []float64
	// Unknowns selects Φ's unknown handling.
	Unknowns core.UnknownMode
	// Parallelism sizes the worker pool of the similarity stage: 0 uses
	// all cores (GOMAXPROCS), 1 fills the matrix on the calling
	// goroutine. The result is bit-identical at every setting.
	Parallelism int
	// Kernel is ignored.
	//
	// Deprecated: the similarity stage has one engine.
	Kernel core.SimKernel
	// Clean enables the §2.4 cleaning stages before analysis.
	Clean bool
	// ValidSites, when non-nil, quarantines observations whose site label
	// it rejects (replacing them with unknowns) before the other cleaning
	// stages — the ingest guard for fault-injected or untrusted data (see
	// DESIGN.md §7). It applies whether or not Clean is set.
	ValidSites func(site string) bool
	// InterpolateReach bounds temporal interpolation (default 3).
	InterpolateReach int
	// MicroCatchmentShare marks sites below this mean share of known
	// assignments as micro-catchments to suppress (0 disables).
	MicroCatchmentShare float64
	// Clustering tunes mode discovery.
	Clustering core.AdaptiveOptions
	// Detection tunes change detection.
	Detection core.DetectOptions
	// Obs receives pipeline instrumentation: stage spans (clean,
	// similarity, cluster, detect) plus the engine's counters and
	// histograms. nil disables instrumentation with no behavioural
	// change.
	Obs *obs.Registry
}

// DefaultAnalysisOptions mirrors the paper's configuration.
func DefaultAnalysisOptions() AnalysisOptions {
	return AnalysisOptions{
		Unknowns:         core.PessimisticUnknown,
		Clean:            true,
		InterpolateReach: 3,
		Clustering:       core.DefaultAdaptiveOptions(),
		Detection:        core.DefaultDetectOptions(),
	}
}

// Analysis is the result of the full Fenrir pipeline over a series.
type Analysis struct {
	// Series is the series analysed, after any quarantine and cleaning.
	Series *core.Series
	// Matrix is the all-pairs Φ matrix.
	Matrix *core.SimMatrix
	// Modes is the discovered mode structure.
	Modes *core.ModesResult
	// Changes are the detected change events.
	Changes []core.ChangeEvent
	// Coverage is the fraction of known (network, epoch) cells after
	// cleaning.
	Coverage float64
	// Suppressed lists micro-catchment sites that were folded into
	// "other".
	Suppressed []string
	// Quarantined reports what the ValidSites guard removed; nil when no
	// guard was configured.
	Quarantined *clean.QuarantineReport
}

// Analyze runs the complete pipeline of Table 1 on a series: quarantine
// and cleaning, similarity, clustering, and change detection, each under
// its stage span. It is the one pipeline: every scenario runs it too.
func Analyze(s *core.Series, opts AnalysisOptions) *Analysis {
	a := &Analysis{}
	if opts.ValidSites != nil || opts.Clean {
		spClean := opts.Obs.StartSpan("clean")
		if opts.ValidSites != nil {
			s, a.Quarantined = clean.Quarantine(s, opts.ValidSites, opts.Obs)
		}
		if opts.Clean {
			if opts.MicroCatchmentShare > 0 {
				a.Suppressed = clean.MicroCatchments(s, opts.MicroCatchmentShare)
				s = clean.SuppressSites(s, a.Suppressed)
			}
			reach := opts.InterpolateReach
			if reach <= 0 {
				reach = 3
			}
			s = clean.Interpolate(s, clean.InterpolateOptions{MaxReach: reach})
		}
		spClean.SetItems(int64(s.Len()))
		spClean.End()
	}
	a.Series = s
	a.Coverage = clean.Coverage(s)
	spSim := opts.Obs.StartSpan("similarity")
	a.Matrix = core.SimilarityMatrixParallel(s, opts.Weights, opts.Unknowns,
		core.MatrixOptions{Parallelism: opts.Parallelism, Obs: opts.Obs, Span: spSim})
	spSim.SetItems(int64(a.Matrix.N) * int64(a.Matrix.N-1) / 2)
	// The engine just published its effective (clamped) pool size.
	spSim.SetWorkers(int(opts.Obs.Gauge("fenrir_similarity_workers").Value()))
	spSim.End()
	spCl := opts.Obs.StartSpan("cluster")
	clOpts := opts.Clustering
	clOpts.Obs, clOpts.Span = opts.Obs, spCl
	a.Modes = core.DiscoverModes(a.Matrix, clOpts)
	spCl.End()
	spDet := opts.Obs.StartSpan("detect")
	a.Changes = core.DetectChangesMatrix(s, a.Matrix, opts.Unknowns, opts.Weights, opts.Detection)
	core.ObserveDetections(opts.Obs, spDet, a.Changes)
	spDet.SetItems(int64(len(a.Changes)))
	spDet.End()
	return a
}

// Report renders the analysis as human-readable text: the mode summary,
// the ASCII heatmap, and the detected changes.
func (a *Analysis) Report() string {
	var b strings.Builder
	b.WriteString(report.ModesSummary(a.Modes))
	b.WriteString(report.Heatmap(a.Matrix, 60))
	for _, c := range a.Changes {
		fmt.Fprintf(&b, "change at epoch %d: Phi dropped to %.2f (baseline %.2f)\n",
			int(c.At), c.Phi, c.Baseline)
		if ex := c.Explanation; ex != nil {
			fmt.Fprintf(&b, "  %s\n", ex.Label())
			if f, ok := ex.TopFlow(); ok {
				fmt.Fprintf(&b, "  top flow: %s -> %s (%.0f)\n", f.From, f.To, f.Count)
			}
		}
	}
	return b.String()
}

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
	// Analysis is Analyze over the study's series (see outcome). Its
	// Quarantined is set on fault runs of studies with a known site set.
	Analysis
	// Faults reports injected faults, retries, and quarantined
	// observations; nil when no fault layer was active.
	Faults *faults.Report
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

// outcome runs Analyze over a scenario's raw series: pessimistic,
// unweighted Φ, no §2.4 cleaning, and the study's detection options.
// When a fault layer is active and the study knows its site set (valid
// non-nil), the pipeline's quarantine maps labels that are neither in
// valid nor the reserved err and other to unknown, and counts them;
// zero-fault runs keep their exact pre-fault-layer pipeline. Nothing
// injects after observation ends, so the fault report is final here,
// and its invalid-site entry is the quarantine's total.
func (r Run) outcome(inj *faults.Injector, s *core.Series, valid map[string]bool, det core.DetectOptions) Outcome {
	opts := AnalysisOptions{Unknowns: core.PessimisticUnknown, Parallelism: r.Parallelism,
		Clustering: core.DefaultAdaptiveOptions(), Detection: det, Obs: r.Obs}
	if inj != nil && valid != nil {
		opts.ValidSites = func(site string) bool {
			return valid[site] || site == core.SiteError || site == core.SiteOther
		}
	}
	o := Outcome{Analysis: *Analyze(s, opts), Faults: inj.Report()}
	if o.Quarantined != nil {
		o.Faults.Quarantined["invalid-site"] = o.Quarantined.Total
	}
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
