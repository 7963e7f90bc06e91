package latency

import (
	"math"
	"sort"

	"fenrir/internal/core"
)

// Anycast polarization detection. The paper motivates latency monitoring
// partly by polarization (Moura et al. 2022; Rizvi et al. 2024): BGP
// sometimes routes a client to a site far from the nearest one, inflating
// latency despite a nearby replica. Operators reading Fenrir's mode
// summaries want a per-mode answer to "how many of my clients are
// polarized, and how much latency is it costing them" — this file
// computes it from the measured assigned-site RTTs against best-possible
// RTTs.

// PolarizedClient describes one network routed to a much slower site
// than its best alternative.
type PolarizedClient struct {
	Network     int // row in the space
	AssignedRTT float64
	BestRTT     float64
}

// Inflation returns the latency cost factor of the polarization.
func (p PolarizedClient) Inflation() float64 {
	if p.BestRTT <= 0 {
		return math.Inf(1)
	}
	return p.AssignedRTT / p.BestRTT
}

// PolarizationOptions tunes detection.
type PolarizationOptions struct {
	// Factor is the minimal AssignedRTT/BestRTT ratio to call a client
	// polarized (2 = twice the achievable latency).
	Factor float64
	// MinDeltaMs ignores inflation below this absolute cost, so a 3 ms
	// client twice as slow as a 1.5 ms optimum is not flagged.
	MinDeltaMs float64
}

// DefaultPolarizationOptions uses a 2x factor with a 20 ms floor,
// matching how the anycast literature reads "polarized".
func DefaultPolarizationOptions() PolarizationOptions {
	return PolarizationOptions{Factor: 2, MinDeltaMs: 20}
}

// DetectPolarization compares each network's RTT to its assigned site
// against the minimum RTT across all sites. assigned holds measured RTTs
// keyed by network row; perSite holds, for each site label, that site's
// RTT per network row (only rows present in both maps are considered).
// Results are sorted by inflation, worst first.
func DetectPolarization(v *core.Vector, assigned map[int]float64, perSite map[string]map[int]float64, opts PolarizationOptions) []PolarizedClient {
	if opts.Factor <= 1 {
		opts.Factor = 2
	}
	var out []PolarizedClient
	for n, rtt := range assigned {
		if _, ok := v.Site(n); !ok {
			continue
		}
		best := rtt
		for _, rtts := range perSite {
			if alt, ok := rtts[n]; ok && alt < best {
				best = alt
			}
		}
		if best <= 0 {
			continue
		}
		if rtt >= best*opts.Factor && rtt-best >= opts.MinDeltaMs {
			out = append(out, PolarizedClient{Network: n, AssignedRTT: rtt, BestRTT: best})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Inflation(), out[j].Inflation()
		if ri != rj {
			return ri > rj
		}
		return out[i].Network < out[j].Network
	})
	return out
}
