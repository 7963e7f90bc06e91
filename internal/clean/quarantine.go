package clean

import (
	"fmt"
	"sort"

	"fenrir/internal/core"
	"fenrir/internal/obs"
)

// QuarantineReport tallies what Quarantine removed, keyed by the rejected
// site label. It is attached to scenario results so fault runs can assert
// that injected bogus observations were actually caught.
type QuarantineReport struct {
	// ByLabel counts quarantined (network, epoch) cells per rejected label.
	ByLabel map[string]int
	// Total is the sum over ByLabel.
	Total int
}

// Labels returns the rejected labels in sorted order.
func (r *QuarantineReport) Labels() []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.ByLabel))
	for k := range r.ByLabel {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Quarantine maps observations whose site label fails the validity
// predicate to unknown and counts every removal — per label in the report
// and in the obs counter fenrir_quarantined_total{reason="invalid-site"}.
// The predicate is service-specific: an anycast study rejects site labels
// that are not in the operator's site list (bogus hostname.bind strings,
// spoofed replies). The counter is materialized even when nothing is
// quarantined, so run manifests always carry an explicit number. The
// input series is never mutated.
func Quarantine(s *core.Series, valid func(site string) bool, reg *obs.Registry) (*core.Series, *QuarantineReport) {
	rep := &QuarantineReport{ByLabel: make(map[string]int)}
	out := make([]*core.Vector, 0, s.Len())
	for _, v := range s.Vectors {
		cv := v.Clone()
		for n := 0; n < s.Space.NumNetworks(); n++ {
			if site, ok := cv.Site(n); ok && !valid(site) {
				cv.SetUnknown(n)
				rep.ByLabel[site]++
				rep.Total++
			}
		}
		out = append(out, cv)
	}
	reg.Counter(`fenrir_quarantined_total{reason="invalid-site"}`).Add(int64(rep.Total))
	for label, n := range rep.ByLabel {
		reg.Counter(fmt.Sprintf("fenrir_quarantined_labels_total{label=%q}", label)).Add(int64(n))
	}
	if rep.Total > 0 {
		reg.Logger().Warn("cleaning quarantined observations",
			"cells", rep.Total, "labels", len(rep.ByLabel))
	}
	return core.NewSeries(s.Space, s.Schedule, out, s.Gaps), rep
}
