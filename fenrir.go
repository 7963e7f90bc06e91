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
	"fenrir/internal/core"
	"fenrir/internal/scenario"
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

// The pipeline of Table 1 is internal/scenario's, which every built-in
// study runs as well; the facade re-exports it.
type (
	// AnalysisOptions configures the full pipeline run by Analyze.
	AnalysisOptions = scenario.AnalysisOptions
	// Analysis is the result of the full Fenrir pipeline over a series.
	Analysis = scenario.Analysis
)

// DefaultAnalysisOptions mirrors the paper's configuration.
func DefaultAnalysisOptions() AnalysisOptions { return scenario.DefaultAnalysisOptions() }

// Analyze runs the complete pipeline of Table 1 on a series: quarantine
// and cleaning, similarity, clustering, and change detection.
func Analyze(s *Series, opts AnalysisOptions) *Analysis { return scenario.Analyze(s, opts) }
