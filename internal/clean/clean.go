// Package clean implements Fenrir's data-cleaning stage (§2.4): removing
// clearly incorrect observations, suppressing micro-catchments, and
// interpolating missing observations in time. Cleaners never mutate their
// inputs; they return new vectors, so raw observations stay auditable.
package clean

import (
	"math/bits"
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
//
// The rule is applied per cell, 64 networks at a time: a cell whose
// nearest left and right donors lie dl and dr epochs away is in its run's
// first half, midpoint included, iff dl ≤ dr, so it copies the left donor
// then and the right one otherwise, and a one-sided run copies its one
// donor; either way the donor must be within MaxReach. Each vector's
// known masks decide the fills of a whole word of networks with a few
// word operations per distance, and only the filled cells are written.
// The inputs are cloned, never mutated.
func Interpolate(s *core.Series, opts InterpolateOptions) *core.Series {
	if opts.MaxReach <= 0 {
		opts.MaxReach = 3
	}
	out := make([]*core.Vector, 0, s.Len())
	for _, v := range s.Vectors {
		out = append(out, v.Clone())
	}
	// The known masks of every row, read before any fill: donors are
	// original known cells, so no fill feeds a later decision.
	nets := s.Space.NumNetworks()
	words, tail := (nets+63)/64, ^uint64(0)
	if nets%64 != 0 {
		tail = 1<<(nets%64) - 1
	}
	known := make([]uint64, len(out)*words)
	for i, v := range out {
		v.KnownWords(known[i*words : (i+1)*words])
	}
	// Work over runs of *adjacent epochs*: split the vector list wherever
	// the epoch sequence jumps.
	start := 0
	for i := 1; i <= len(out); i++ {
		if i == len(out) || out[i].T != out[i-1].T+1 {
			fillSegment(out[start:i], known[start*words:i*words], words, tail, opts.MaxReach)
			start = i
		}
	}
	return core.NewSeries(s.Space, s.Schedule, out, s.Gaps)
}

// fillSegment fills the unknown cells of one segment of consecutive
// epochs; known[p*words+k] is row p's known mask for networks 64k…64k+63,
// and tail masks the last word's networks. For each row p and word it
// steps d = 1…maxReach outward on both sides. lrun holds the networks
// unknown at p…p−d+1 that no right donor has claimed, so lrun &
// known(p−d) are the networks whose left donor, d away, wins; rrun is
// the same on the right. A left donor d away also takes its networks off
// the right walk, since a right donor as far or farther loses (ties go
// left), and a right donor d away takes its networks off the left walk,
// since a farther left donor loses. The walk stops once every network
// has met a donor or the segment's edge on both sides.
func fillSegment(seg []*core.Vector, known []uint64, words int, tail uint64, maxReach int) {
	for p, dst := range seg {
		for k := 0; k < words; k++ {
			lrun := ^known[p*words+k]
			if k == words-1 {
				lrun &= tail
			}
			rrun := lrun
			for d := 1; d <= maxReach && lrun|rrun != 0; d++ {
				if p-d >= 0 {
					kl := known[(p-d)*words+k]
					la := lrun & kl
					lrun &^= kl
					rrun &^= la
					copyCells(dst, seg[p-d], la, k<<6)
				} else {
					lrun = 0
				}
				if p+d < len(seg) {
					kr := known[(p+d)*words+k]
					ra := rrun & kr
					rrun &^= kr
					lrun &^= ra
					copyCells(dst, seg[p+d], ra, k<<6)
				} else {
					rrun = 0
				}
			}
		}
	}
}

// copyCells copies src's assignment of each network base+i, for every
// set bit i of mask, into dst.
func copyCells(dst, src *core.Vector, mask uint64, base int) {
	for ; mask != 0; mask &= mask - 1 {
		n := base + bits.TrailingZeros64(mask)
		dst.SetIndex(n, src.Get(n))
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
