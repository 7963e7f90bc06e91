// Package latency implements §2.8: relating routing modes to the latency
// operators actually care about. It aggregates per-network RTT samples
// into per-catchment percentiles (Figure 4's p90-per-site series).
package latency

import (
	"math"
	"sort"

	"fenrir/internal/core"
	"fenrir/internal/timeline"
)

// Percentile returns the p-th percentile (0..100) of xs using nearest-rank
// on a sorted copy; it returns NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}

// BySite groups RTT samples (keyed by network row) by the catchment the
// vector assigns that network to, then reduces each group with the p-th
// percentile. Networks without samples or with unknown catchments are
// skipped. This is exactly Figure 4: p90 latency per catchment.
func BySite(v *core.Vector, rtts map[int]float64, p float64) map[string]float64 {
	groups := make(map[string][]float64)
	for n, rtt := range rtts {
		if site, ok := v.Site(n); ok {
			groups[site] = append(groups[site], rtt)
		}
	}
	out := make(map[string]float64, len(groups))
	for site, xs := range groups {
		out[site] = Percentile(xs, p)
	}
	return out
}

// SiteSeries is a per-site latency time series, one value per epoch
// (NaN when the site had no samples that epoch) — the data behind the
// Figure 4 plot.
type SiteSeries struct {
	Sites  []string
	Epochs []timeline.Epoch
	vals   map[string][]float64
}

// NewSiteSeries prepares a series for the given epochs.
func NewSiteSeries() *SiteSeries {
	return &SiteSeries{vals: make(map[string][]float64)}
}

// Append records one epoch's per-site percentile map.
func (s *SiteSeries) Append(e timeline.Epoch, bySite map[string]float64) {
	s.Epochs = append(s.Epochs, e)
	n := len(s.Epochs)
	for site := range bySite {
		if _, ok := s.vals[site]; !ok {
			// Backfill with NaN for epochs before the site appeared.
			pad := make([]float64, n-1)
			for i := range pad {
				pad[i] = math.NaN()
			}
			s.vals[site] = pad
			s.Sites = append(s.Sites, site)
			sort.Strings(s.Sites)
		}
	}
	for site, vs := range s.vals {
		if v, ok := bySite[site]; ok {
			s.vals[site] = append(vs, v)
		} else {
			s.vals[site] = append(vs, math.NaN())
		}
	}
}

// Value returns the series value for a site at epoch index i (NaN when
// absent).
func (s *SiteSeries) Value(site string, i int) float64 {
	vs, ok := s.vals[site]
	if !ok || i < 0 || i >= len(vs) {
		return math.NaN()
	}
	return vs[i]
}
