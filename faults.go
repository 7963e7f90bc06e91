package fenrir

import (
	"fenrir/internal/clean"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
)

// Fault injection (DESIGN.md §7): the scenario runners accept a
// FaultProfile that wraps every measurement substrate in a deterministic,
// seed-driven fault layer — packet loss bursts, duplication, reordering,
// payload corruption, delay spikes, stuck and bogus site labels, truncated
// BGP streams, and vantage-point blackouts. The zero profile keeps every
// run byte-identical to an unfaulted one; a fixed fault seed reproduces
// the identical fault pattern (and therefore identical outputs) at any
// parallelism.
type (
	// FaultProfile selects fault classes and rates; the zero value
	// disables injection entirely.
	FaultProfile = faults.Profile
	// FaultReport summarizes what a run injected, retried, and
	// quarantined, keyed by substrate and fault kind.
	FaultReport = faults.Report
	// QuarantineReport details the observations the ingest quarantine
	// replaced with unknowns, keyed by offending site label.
	QuarantineReport = clean.QuarantineReport
)

// FaultProfileByName resolves "none", "light", "heavy", "blackout", or
// "corrupt" to a profile.
var FaultProfileByName = faults.ByName

// Quarantine replaces observations whose site label fails valid with
// unknowns, returning the cleaned series and a report of what was removed.
// Counters land in reg (fenrir_quarantined_total and per-label breakdowns)
// when reg is non-nil.
func Quarantine(s *Series, valid func(string) bool, reg *obs.Registry) (*Series, *QuarantineReport) {
	return clean.Quarantine(s, valid, reg)
}
