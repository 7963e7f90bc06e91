// Package clean implements Fenrir's data-cleaning stage (§2.4): removing
// clearly incorrect observations, suppressing micro-catchments, and
// interpolating missing observations in time. Cleaners never mutate their
// inputs; they return new vectors, so raw observations stay auditable.
package clean

import (
	"sort"

	"fenrir/internal/core"
)

// MicroCatchments returns the sites whose mean share of known assignments
// across the series is below minShare — the local-only anycast sites and
// intra-enterprise prefixes §2.4 describes. The mean is taken over the
// epochs that contributed any known assignment: an all-unknown epoch (a
// collection outage or full blackout) carries no information about a
// site's share and must not dilute it. Sites err/other are never reported
// (they are states, not catchments).
func MicroCatchments(s *core.Series, minShare float64) []string {
	share := make(map[string]float64)
	contributing := 0
	for _, v := range s.Vectors {
		agg := v.Aggregate()
		known := 0
		for _, c := range agg {
			known += c
		}
		if known == 0 {
			continue
		}
		contributing++
		for site, c := range agg {
			share[site] += float64(c) / float64(known)
		}
	}
	if contributing == 0 {
		return nil
	}
	var out []string
	for site, sum := range share {
		if site == core.SiteError || site == core.SiteOther {
			continue
		}
		if sum/float64(contributing) < minShare {
			out = append(out, site)
		}
	}
	sort.Strings(out)
	return out
}

// SuppressSites reassigns all observations of the given sites to the
// "other" state, removing micro-catchments from mode analysis while
// conserving mass in transition matrices.
func SuppressSites(s *core.Series, sites []string) *core.Series {
	drop := make(map[string]bool, len(sites))
	for _, x := range sites {
		drop[x] = true
	}
	out := make([]*core.Vector, 0, s.Len())
	for _, v := range s.Vectors {
		cv := v.Clone()
		for n := 0; n < s.Space.NumNetworks(); n++ {
			if site, ok := cv.Site(n); ok && drop[site] {
				cv.Set(n, core.SiteOther)
			}
		}
		out = append(out, cv)
	}
	return core.NewSeries(s.Space, s.Schedule, out, s.Gaps)
}

// InterpolateOptions tunes temporal gap filling.
type InterpolateOptions struct {
	// MaxReach is the paper's limit "up to 3 observations away": a missing
	// observation is filled only if its donor (the nearest preceding or
	// following known observation) is at most this many epochs away.
	MaxReach int
}

// DefaultInterpolateOptions mirrors §2.4.
func DefaultInterpolateOptions() InterpolateOptions { return InterpolateOptions{MaxReach: 3} }

// Interpolate fills unknown runs per network using the paper's
// nearest-neighbour rule: for a missing run [k, k+i] bounded by known
// observations at k−1 and k+i+1, positions in the first half copy the
// value at k−1 and positions in the second half copy the value at k+i+1,
// subject to MaxReach. Runs at the start or end of the series (missing a
// donor on one side) are filled only from the available side. Collection
// gaps (epochs with no vector at all) break runs: values are never carried
// across an outage.
func Interpolate(s *core.Series, opts InterpolateOptions) *core.Series {
	if opts.MaxReach <= 0 {
		opts.MaxReach = 3
	}
	out := make([]*core.Vector, 0, s.Len())
	for _, v := range s.Vectors {
		out = append(out, v.Clone())
	}
	// Work over runs of *adjacent epochs*: split the vector list wherever
	// the epoch sequence jumps.
	var segments [][]*core.Vector
	start := 0
	for i := 1; i <= len(out); i++ {
		if i == len(out) || out[i].T != out[i-1].T+1 {
			segments = append(segments, out[start:i])
			start = i
		}
	}
	nets := s.Space.NumNetworks()
	for _, seg := range segments {
		for n := 0; n < nets; n++ {
			interpolateNetwork(seg, n, opts.MaxReach)
		}
	}
	return core.NewSeries(s.Space, s.Schedule, out, s.Gaps)
}

// interpolateNetwork fills one network's unknown runs inside a contiguous
// segment of vectors.
func interpolateNetwork(seg []*core.Vector, n, maxReach int) {
	L := len(seg)
	for i := 0; i < L; {
		if seg[i].Get(n) != core.Unknown {
			i++
			continue
		}
		// Unknown run [i, j).
		j := i
		for j < L && seg[j].Get(n) == core.Unknown {
			j++
		}
		var left, right int32 = core.Unknown, core.Unknown
		if i > 0 {
			left = seg[i-1].Get(n)
		}
		if j < L {
			right = seg[j].Get(n)
		}
		runLen := j - i
		// First half leans on the left donor, second half on the right;
		// the midpoint (odd runs) goes left, matching the paper's
		// [k .. k+i/2] ← k−1 formulation. A run missing one donor (series
		// edge) is filled entirely from the available side.
		half := (runLen + 1) / 2
		if left == core.Unknown {
			half = 0
		} else if right == core.Unknown {
			half = runLen
		}
		for p := i; p < j; p++ {
			var donor int32
			var dist int
			if p-i < half {
				donor = left
				dist = p - (i - 1)
			} else {
				donor = right
				dist = j - p
			}
			if donor != core.Unknown && dist <= maxReach {
				seg[p].SetIndex(n, donor)
			}
		}
		i = j
	}
}

// Coverage reports the fraction of (network, epoch) cells with known
// assignments — a data-quality number the experiment reports print
// alongside each dataset.
func Coverage(s *core.Series) float64 {
	if s.Len() == 0 || s.Space.NumNetworks() == 0 {
		return 0
	}
	known := 0
	for _, v := range s.Vectors {
		known += v.KnownCount()
	}
	return float64(known) / float64(s.Len()*s.Space.NumNetworks())
}
