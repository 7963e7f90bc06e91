package core

import (
	"sort"

	"fenrir/internal/timeline"
)

// Mode is a recurring routing result: a cluster of epochs whose vectors
// are mutually similar. A mode may span several disjoint time ranges —
// that recurrence is exactly what the paper's title is about (B-Root's
// 2024 routing partially "falling back" to its 2019 mode).
type Mode struct {
	// ID numbers modes in order of first appearance: (i), (ii), ... in
	// the paper's figures.
	ID int
	// Rows are the similarity-matrix row indexes in the mode.
	Rows []int
	// Epochs are the corresponding epochs, ascending.
	Epochs []timeline.Epoch
	// Ranges are the maximal runs of consecutive observations, the dark
	// triangles on the heatmap diagonal.
	Ranges []timeline.Range
	// InternalLo/Hi is the Φ range within the mode (paper notation
	// "Φ in [lo, hi]"); for singleton modes both are 1.
	InternalLo, InternalHi float64
}

// ModesResult is the outcome of mode discovery over a series.
type ModesResult struct {
	Threshold float64
	Modes     []Mode
	Matrix    *SimMatrix
}

// DiscoverModes runs the full §2.6 pipeline on a precomputed similarity
// matrix: HAC, adaptive threshold, and mode assembly. Modes are ordered by
// first epoch; clusters smaller than opts.MinMembers are still reported
// (as transient states) but callers typically filter on len(Epochs).
func DiscoverModes(m *SimMatrix, opts AdaptiveOptions) *ModesResult {
	threshold, clusters := ClusterAdaptive(m, opts)
	return assembleModes(m, threshold, clusters)
}

// assembleModes turns a partition of m's rows into modes — the one
// assembly behind DiscoverModes and Monitor.LiveModes.
func assembleModes(m *SimMatrix, threshold float64, clusters [][]int) *ModesResult {
	res := &ModesResult{Threshold: threshold, Matrix: m}
	for _, rows := range clusters {
		mode := Mode{Rows: rows}
		for _, r := range rows {
			mode.Epochs = append(mode.Epochs, timeline.Epoch(m.Epochs[r]))
		}
		sort.Slice(mode.Epochs, func(i, j int) bool { return mode.Epochs[i] < mode.Epochs[j] })
		mode.Ranges = consecutiveRanges(mode.Epochs)
		if len(rows) >= 2 {
			mode.InternalLo, mode.InternalHi = m.phiRangeWithin(rows)
		} else {
			mode.InternalLo, mode.InternalHi = 1, 1
		}
		res.Modes = append(res.Modes, mode)
	}
	sort.Slice(res.Modes, func(i, j int) bool { return res.Modes[i].Epochs[0] < res.Modes[j].Epochs[0] })
	for i := range res.Modes {
		res.Modes[i].ID = i + 1
	}
	return res
}

// consecutiveRanges folds a sorted epoch list into maximal [from,to) runs.
// Epochs are "consecutive" when they differ by one; collection gaps break
// runs, matching how the paper draws distinct triangles around the B-Root
// outage.
func consecutiveRanges(es []timeline.Epoch) []timeline.Range {
	var out []timeline.Range
	for i := 0; i < len(es); {
		j := i
		for j+1 < len(es) && es[j+1] == es[j]+1 {
			j++
		}
		out = append(out, timeline.Range{From: es[i], To: es[j] + 1})
		i = j + 1
	}
	return out
}

// CrossPhi returns the Φ range between two modes, the paper's
// Φ(M_i, M_j) = [lo, hi].
func (r *ModesResult) CrossPhi(a, b Mode) (lo, hi float64) {
	return r.Matrix.PhiRange(a.Rows, b.Rows)
}

// ModeOf returns the mode containing the given matrix row, or nil.
func (r *ModesResult) ModeOf(row int) *Mode {
	for i := range r.Modes {
		for _, x := range r.Modes[i].Rows {
			if x == row {
				return &r.Modes[i]
			}
		}
	}
	return nil
}

// Recurrences lists modes that appear in more than one disjoint time
// range — the "rediscovered" routing results.
func (r *ModesResult) Recurrences() []Mode {
	var out []Mode
	for _, m := range r.Modes {
		if len(m.Ranges) > 1 {
			out = append(out, m)
		}
	}
	return out
}
