// Package weight builds the per-network weight vectors of §2.5: raw
// observations count what a vantage point *sees*; weights turn that into
// what it *represents* — address blocks, historical traffic, or users.
package weight

import (
	"fmt"

	"fenrir/internal/core"
)

// ByCount weighs each network by a represented-unit count, e.g. the number
// of /24 blocks a vantage point's prefix spans (one Atlas VP in a /16
// counts as 256 blocks). Networks absent from counts get defaultCount.
func ByCount(s *core.Space, counts map[string]float64, defaultCount float64) []float64 {
	w := make([]float64, s.NumNetworks())
	for i := range w {
		if c, ok := counts[s.Network(i)]; ok {
			w[i] = c
		} else {
			w[i] = defaultCount
		}
	}
	return w
}

// ByTraffic weighs networks by historical traffic (or user count); the
// semantics are identical to ByCount but the name documents intent at call
// sites, matching the paper's separate discussion of traffic weighting.
func ByTraffic(s *core.Space, traffic map[string]float64, defaultTraffic float64) []float64 {
	return ByCount(s, traffic, defaultTraffic)
}

// Validate checks a weight vector for use with a space: correct length and
// no negative entries; a zero-sum vector is rejected because Φ would be
// undefined.
func Validate(s *core.Space, w []float64) error {
	if len(w) != s.NumNetworks() {
		return fmt.Errorf("weight: length %d != %d networks", len(w), s.NumNetworks())
	}
	var sum float64
	for i, x := range w {
		if x < 0 {
			return fmt.Errorf("weight: negative weight %g for network %q", x, s.Network(i))
		}
		sum += x
	}
	if sum == 0 {
		return fmt.Errorf("weight: all weights zero")
	}
	return nil
}

// Normalize scales the vector to sum to the number of networks, so
// weighted aggregates remain comparable to unweighted counts. A zero-sum
// input is returned unchanged.
func Normalize(w []float64) []float64 {
	var sum float64
	for _, x := range w {
		sum += x
	}
	if sum == 0 {
		return append([]float64(nil), w...)
	}
	scale := float64(len(w)) / sum
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = x * scale
	}
	return out
}
