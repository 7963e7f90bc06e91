// Package verfploeter implements a Verfploeter-style anycast catchment
// census (de Vries et al., IMC'17), the method behind the paper's
// B-Root/Verfploeter dataset: ping every /24 block in a hitlist from one
// anycast site using the anycast prefix as the source address, and record
// which site each block's reply arrives at — that site is the block's
// catchment. Blocks that never answer stay unknown, which is the ~50 %
// unknown rate the paper's pessimistic Φ discussion revolves around.
package verfploeter

import (
	"fmt"

	"fenrir/internal/astopo"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/faults"
	"fenrir/internal/netaddr"
	"fenrir/internal/timeline"
)

// Mapper runs catchment censuses for one anycast service over a fixed
// hitlist.
type Mapper struct {
	Net     dataplane.Plane
	Service string
	Hitlist []netaddr.Block
	// Backoff meters the extra probes a silent block gets within one
	// census (see faults.Injector.NewBackoff); nil never retries.
	// Verfploeter deployments retry to suppress transient loss; retries
	// cannot recover a genuinely unresponsive block.
	Backoff *faults.Backoff
}

// NewMapper builds a mapper that gives a silent block one retry per
// census. It panics if the service is unknown — a wiring bug, not a
// runtime condition.
func NewMapper(net dataplane.Plane, service string, hitlist []netaddr.Block) *Mapper {
	if net.Service(service) == nil {
		panic(fmt.Sprintf("verfploeter: unknown service %q", service))
	}
	var noFaults *faults.Injector
	return &Mapper{Net: net, Service: service, Hitlist: hitlist,
		Backoff: noFaults.NewBackoff("verfploeter", 1)}
}

// Space builds the analysis space: one Fenrir network per hitlist /24.
func (m *Mapper) Space() *core.Space {
	ids := make([]string, len(m.Hitlist))
	for i, b := range m.Hitlist {
		ids[i] = b.String()
	}
	return core.NewSpace(ids)
}

// Census pings the full hitlist once and fills a vector in the given
// space: each responsive block is assigned the site its reply reached;
// silent blocks stay unknown. The sending site is whichever enabled site
// the service lists first — on the real system the census runs from one
// site while replies scatter to all of them, and the same happens here.
func (m *Mapper) Census(space *core.Space, epoch timeline.Epoch) (*core.Vector, error) {
	svc := m.Net.Service(m.Service)
	var fromAS astopo.ASN
	found := false
	for _, name := range svc.SiteNames() {
		if s := svc.Site(name); s.Enabled {
			fromAS = s.AS
			found = true
			break
		}
	}
	v := space.NewVector(epoch)
	if !found {
		// Fully drained service: an all-unknown census, matching what the
		// real pipeline records during a collection outage.
		return v, nil
	}
	srcAddr := m.Net.ServiceAddr(m.Service)
	for i, b := range m.Hitlist {
		target := b.Host(1) // the hitlist representative address
		for attempt := 0; ; attempt++ {
			res := m.Net.Ping(fromAS, srcAddr, target, uint16(epoch), uint16(i), int(epoch))
			ok := res.Kind == dataplane.EchoReply
			if ok {
				if res.Site == "" {
					// A reply that did not arrive via the service prefix
					// would be a simulator bug; classify as other.
					v.Set(i, core.SiteOther)
				} else {
					v.Set(i, res.Site)
				}
			}
			if ok || !m.Backoff.Allow(attempt+1) {
				break
			}
		}
	}
	return v, nil
}
