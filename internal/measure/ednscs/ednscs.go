// Package ednscs implements the EDNS Client-Subnet website-mapping method
// of Calder et al. that the paper uses for Google and Wikipedia (§2.3.3):
// from a single physical observer, issue one A query per target prefix
// with that prefix in the ECS option, and record which front-end the
// load balancer assigns — the website catchment of that prefix.
package ednscs

import (
	"fenrir/internal/astopo"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/faults"
	"fenrir/internal/netaddr"
	"fenrir/internal/timeline"
	"fenrir/internal/wire"
)

// Mapper sweeps a website's catchments over a prefix list.
type Mapper struct {
	Net dataplane.Plane
	// ObserverAS is the AS the queries originate from; with ECS a single
	// observer suffices, which is the method's point.
	ObserverAS astopo.ASN
	// ServerAddr is the website's authoritative DNS address.
	ServerAddr netaddr.Addr
	// Hostname is the queried name (the site's front page host).
	Hostname string
	// Prefixes are the client networks to map.
	Prefixes []netaddr.Prefix
	// DecodeFrontEnd maps an answered A address to a catchment label
	// (e.g. a front-end id or a site name). Unknown addresses become
	// "other".
	DecodeFrontEnd func(addr netaddr.Addr) (string, bool)
	// Backoff meters per-query retries (see faults.Injector.NewBackoff);
	// nil never retries.
	Backoff *faults.Backoff
}

// Space builds the analysis space: one network per swept prefix.
func (m *Mapper) Space() *core.Space {
	ids := make([]string, len(m.Prefixes))
	for i, p := range m.Prefixes {
		ids[i] = p.String()
	}
	return core.NewSpace(ids)
}

// Sweep maps every prefix once. Failed queries (loss, refused, NXDomain)
// leave the element unknown — the cleaner's interpolation stage repairs
// one-shot losses exactly as §2.4 prescribes for this dataset.
func (m *Mapper) Sweep(space *core.Space, epoch timeline.Epoch) *core.Vector {
	v := space.NewVector(epoch)
	for i, p := range m.Prefixes {
		q := &wire.DNSMessage{
			ID: uint16(epoch) ^ uint16(i*7+1),
			RD: true,
			Questions: []wire.Question{
				{Name: m.Hostname, Type: wire.TypeA, Class: wire.ClassIN},
			},
			Additional: []wire.RR{wire.OPTRecord(4096, wire.ClientSubnet{
				Addr:            uint32(p.Addr),
				SourcePrefixLen: uint8(p.Bits),
			}.Option())},
		}
		var resp *wire.DNSMessage
		var err error
		for attempt := 0; ; attempt++ {
			resp, _, err = m.Net.QueryDNS(m.ObserverAS, m.ServerAddr, q, int(epoch))
			if err == nil || !m.Backoff.Allow(attempt+1) {
				break
			}
		}
		if err != nil || resp.RCode != wire.RCodeNoError || len(resp.Answers) == 0 {
			continue
		}
		a, aerr := wire.AAddr(resp.Answers[0])
		if aerr != nil {
			continue
		}
		if m.DecodeFrontEnd == nil {
			v.Set(i, netaddr.Addr(a).String())
			continue
		}
		if label, ok := m.DecodeFrontEnd(netaddr.Addr(a)); ok {
			v.Set(i, label)
		} else {
			v.Set(i, core.SiteOther)
		}
	}
	return v
}
