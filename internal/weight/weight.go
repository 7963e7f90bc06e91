// Package weight builds the per-network weight vectors of §2.5: raw
// observations count what a vantage point *sees*; weights turn that into
// what it *represents* — address blocks, historical traffic, or users.
package weight

import "fenrir/internal/core"

// ByCount weighs each network by a represented-unit count, e.g. the number
// of /24 blocks a vantage point's prefix spans (one Atlas VP in a /16
// counts as 256 blocks), its historical traffic or its user count.
// Networks absent from counts get defaultCount.
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
