// Package fenrir is the public API of this repository: a Go implementation
// of Fenrir, the system from "Rediscovering Recurring Routing Results"
// (Song & Heidemann, USC/ISI), together with the measurement substrates it
// runs on.
//
// # What Fenrir does
//
// Routing on the Internet is the emergent product of every network's
// policies, so a service operator cannot directly see how much of their
// routing changed, whether a change was theirs or a third party's, or
// whether today's routing is a rerun of a state seen before. Fenrir answers
// those questions from measurements alone:
//
//  1. encode each observation round as a routing vector — the catchment
//     (serving site, or transit AS at a chosen hop) of every network;
//  2. clean the raw observations (drop bogus data, suppress
//     micro-catchments, interpolate one-shot losses);
//  3. optionally weight networks by what they represent (addresses,
//     traffic, users);
//  4. compare vectors pairwise with weighted Gower similarity Φ — "routing
//     today is 80% like last month" becomes a number;
//  5. cluster the vectors to discover recurring routing modes;
//  6. quantify any two states with a transition matrix, and detect change
//     events for validation against operator ground truth.
//
// # Layout
//
// The facade in this package covers the analysis pipeline for users who
// bring their own observations. The simulated Internet (AS topology, BGP
// policy routing, packet forwarding, and the four measurement engines —
// Verfploeter, Atlas-style VP meshes, scamper-style traceroute, and EDNS
// Client-Subnet website mapping) lives under internal/, driven through the
// scenario runner exposed here and through cmd/experiments, which
// regenerates every table and figure of the paper (see EXPERIMENTS.md).
//
// # Quickstart
//
// Build a Space over your networks, fill one Vector per observation round,
// and hand the Series to Analyze:
//
//	space := fenrir.NewSpace([]string{"192.0.2.0/24", "198.51.100.0/24"})
//	v0 := space.NewVector(0)
//	v0.Set(0, "LAX")
//	v0.Set(1, "AMS")
//	// ... one vector per round ...
//	series := fenrir.NewSeries(space, schedule, vectors)
//	res := fenrir.Analyze(series, fenrir.DefaultAnalysisOptions())
//	fmt.Println(res.Report())
//
// See examples/ for complete programs.
package fenrir

import (
	"fmt"

	"fenrir/internal/clean"
	"fenrir/internal/core"
	"fenrir/internal/obs"
	"fenrir/internal/report"
	"fenrir/internal/timeline"
	"fenrir/internal/weight"
)

// Re-exported core types: the facade keeps user code free of internal
// import paths while the implementation stays in internal/core.
type (
	// Space is the fixed universe of networks plus the interned site
	// alphabet shared by a family of vectors.
	Space = core.Space
	// Vector is one routing result D(t).
	Vector = core.Vector
	// Series is an epoch-ordered collection of vectors.
	Series = core.Series
	// SimMatrix is an all-pairs Φ matrix.
	SimMatrix = core.SimMatrix
	// Mode is a recurring routing result discovered by clustering.
	Mode = core.Mode
	// ModesResult is the outcome of mode discovery.
	ModesResult = core.ModesResult
	// TransitionMatrix counts networks moving between catchments.
	TransitionMatrix = core.TransitionMatrix
	// ChangeEvent is a detected routing change.
	ChangeEvent = core.ChangeEvent
	// Explanation is a change event's provenance: contributing
	// networks, site weight flows, unknown-mass accounting, and the
	// recurrence verdict.
	Explanation = core.Explanation
	// Contributor is one network's part in a change event.
	Contributor = core.Contributor
	// Flow is one site→site weight flow of a transition matrix.
	Flow = core.Flow
	// UnknownMode selects Φ's treatment of unobserved networks.
	UnknownMode = core.UnknownMode
	// SimKernel is the type of the deprecated AnalysisOptions.Kernel.
	//
	// Deprecated: there is one similarity engine.
	SimKernel = core.SimKernel
	// Epoch indexes observation rounds.
	Epoch = timeline.Epoch
	// Schedule maps epochs to wall-clock timestamps.
	Schedule = timeline.Schedule
)

// PessimisticUnknown is the paper's Φ (§2.6.1): unobserved networks never
// match.
const PessimisticUnknown = core.PessimisticUnknown

// SiteError is the reserved site label of a probe that failed.
const SiteError = core.SiteError

// NewSpace creates a Space over the given network identifiers.
func NewSpace(networks []string) *Space { return core.NewSpace(networks) }

// NewSeries assembles a series from vectors sharing a space.
func NewSeries(space *Space, sched Schedule, vectors []*Vector) *Series {
	return core.NewSeries(space, sched, vectors, nil)
}

// NewSchedule builds an observation schedule.
var NewSchedule = timeline.NewSchedule

// Gower computes the weighted similarity Φ(a, b); w may be nil.
func Gower(a, b *Vector, w []float64, mode UnknownMode) float64 {
	return core.Gower(a, b, w, mode)
}

// Transition computes the transition matrix between two vectors.
func Transition(a, b *Vector, w []float64) *TransitionMatrix {
	return core.Transition(a, b, w)
}

// CountWeights weighs networks by represented-unit counts (§2.5).
func CountWeights(s *Space, counts map[string]float64, def float64) []float64 {
	return weight.ByCount(s, counts, def)
}

// AnalysisOptions configures the full pipeline run by Analyze.
type AnalysisOptions struct {
	// Weights is the per-network weight vector; nil means uniform.
	Weights []float64
	// Unknowns selects Φ's unknown handling.
	Unknowns UnknownMode
	// Parallelism sizes the worker pool of the similarity stage: 0 uses
	// all cores (GOMAXPROCS), 1 fills the matrix on the calling
	// goroutine. The result is bit-identical at every setting.
	Parallelism int
	// Kernel is ignored.
	//
	// Deprecated: the similarity stage has one engine.
	Kernel SimKernel
	// Clean enables the §2.4 cleaning stages before analysis.
	Clean bool
	// ValidSites, when non-nil, quarantines observations whose site label
	// it rejects (replacing them with unknowns) before the other cleaning
	// stages — the ingest guard for fault-injected or untrusted data (see
	// DESIGN.md §7). Applied only when Clean is set.
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
	// change. See NewRegistry.
	Obs *obs.Registry
}

// DefaultAnalysisOptions mirrors the paper's configuration.
func DefaultAnalysisOptions() AnalysisOptions {
	return AnalysisOptions{
		Unknowns:            PessimisticUnknown,
		Clean:               true,
		InterpolateReach:    3,
		MicroCatchmentShare: 0,
		Clustering:          core.DefaultAdaptiveOptions(),
		Detection:           core.DefaultDetectOptions(),
	}
}

// Analysis is the result of the full Fenrir pipeline over a series.
type Analysis struct {
	// Series is the (possibly cleaned) series the analysis ran on.
	Series *Series
	// Matrix is the all-pairs Φ matrix.
	Matrix *SimMatrix
	// Modes is the discovered mode structure.
	Modes *ModesResult
	// Changes are the detected change events.
	Changes []ChangeEvent
	// Coverage is the fraction of known (network, epoch) cells after
	// cleaning.
	Coverage float64
	// Suppressed lists micro-catchment sites that were folded into
	// "other".
	Suppressed []string
	// Quarantined reports what the ValidSites guard removed; nil when no
	// guard was configured.
	Quarantined *QuarantineReport
}

// Analyze runs the complete pipeline of Table 1 on a series: cleaning,
// similarity, clustering, and change detection.
func Analyze(s *Series, opts AnalysisOptions) *Analysis {
	a := &Analysis{Series: s}
	if opts.Clean {
		spClean := opts.Obs.StartSpan("clean")
		if opts.ValidSites != nil {
			s, a.Quarantined = clean.Quarantine(s, opts.ValidSites, opts.Obs)
			a.Series = s
		}
		if opts.MicroCatchmentShare > 0 {
			a.Suppressed = clean.MicroCatchments(s, opts.MicroCatchmentShare)
			s = clean.SuppressSites(s, a.Suppressed)
		}
		reach := opts.InterpolateReach
		if reach <= 0 {
			reach = 3
		}
		s = clean.Interpolate(s, clean.InterpolateOptions{MaxReach: reach})
		a.Series = s
		spClean.SetItems(int64(s.Len()))
		spClean.End()
	}
	a.Coverage = clean.Coverage(s)
	spSim := opts.Obs.StartSpan("similarity")
	a.Matrix = core.SimilarityMatrixParallel(s, opts.Weights, opts.Unknowns,
		core.MatrixOptions{Parallelism: opts.Parallelism, Obs: opts.Obs, Span: spSim})
	spSim.SetItems(int64(a.Matrix.N) * int64(a.Matrix.N-1) / 2)
	spSim.SetWorkers(int(opts.Obs.Gauge("fenrir_similarity_workers").Value()))
	spSim.End()
	spCl := opts.Obs.StartSpan("cluster")
	clOpts := opts.Clustering
	clOpts.Obs = opts.Obs
	clOpts.Span = spCl
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
	out := report.ModesSummary(a.Modes)
	out += report.Heatmap(a.Matrix, 60)
	for _, c := range a.Changes {
		out += formatChange(c)
	}
	return out
}

func formatChange(c ChangeEvent) string {
	out := fmt.Sprintf("change at epoch %d: Phi dropped to %.2f (baseline %.2f)\n",
		int(c.At), c.Phi, c.Baseline)
	if ex := c.Explanation; ex != nil {
		out += fmt.Sprintf("  %s\n", ex.Label())
		if f, ok := ex.TopFlow(); ok {
			out += fmt.Sprintf("  top flow: %s -> %s (%.0f)\n", f.From, f.To, f.Count)
		}
	}
	return out
}
