// Package websim models DNS-load-balanced websites: a fleet of front-end
// servers plus a selection policy that maps a client prefix to the
// front-end its requests are steered to. Combined with the EDNS
// Client-Subnet mapper (measure/ednscs) this reproduces the paper's two
// website subjects:
//
//   - a Wikipedia-like property: a handful of geographically pinned sites,
//     clients steered to the nearest enabled site, with sticky failover
//     (after a drain ends, only a configurable fraction of shifted clients
//     returns — the paper measured ~30 % returning to codfw);
//   - a Google-like property: thousands of front-ends with generational
//     reshuffles (weekly maintenance windows) plus day-to-day churn, so
//     vectors are ~79 % similar within a week and ~25 % across weeks.
package websim

import (
	"fmt"

	"fenrir/internal/astopo"
	"fenrir/internal/netaddr"
	"fenrir/internal/rng"
	"fenrir/internal/wire"
)

// FrontEnd is one serving location: a label (the catchment identity) and
// the address returned in A records.
type FrontEnd struct {
	Label string
	Addr  netaddr.Addr
	// Lat/Lon places the front-end for geo policies.
	Lat, Lon float64
}

// Policy maps a client prefix to a front-end at a given epoch.
type Policy interface {
	// Select returns the front-end serving the given client prefix at
	// epoch. ok=false means no front-end is available (total outage).
	Select(client netaddr.Prefix, epoch int) (FrontEnd, bool)
}

// Website is a DNS-served web property: a hostname, an authoritative
// server handler, and a selection policy. The scenario advances Epoch
// between measurement rounds; the handler reads it when answering.
type Website struct {
	Hostname string
	Policy   Policy
	Epoch    int
	// TTL for answers; measurement code ignores it but the wire format
	// carries it like the real system would.
	TTL uint32
}

// Handler returns the dataplane DNS handler implementing the website's
// authoritative server: it requires an A query for the hostname, reads the
// ECS option, asks the policy, and echoes the client subnet back with a
// scope, as RFC 7871 servers do.
func (w *Website) Handler() func(q *wire.DNSMessage, site string, client astopo.ASN) *wire.DNSMessage {
	return func(q *wire.DNSMessage, _ string, _ astopo.ASN) *wire.DNSMessage {
		resp := &wire.DNSMessage{ID: q.ID, QR: true, AA: true, Questions: q.Questions}
		if len(q.Questions) != 1 || q.Questions[0].Name != w.Hostname || q.Questions[0].Type != wire.TypeA {
			resp.RCode = wire.RCodeNXDomain
			return resp
		}
		cs, hasECS, err := wire.ECSFromMessage(q)
		if err != nil {
			resp.RCode = wire.RCodeRefused
			return resp
		}
		var clientPrefix netaddr.Prefix
		if hasECS {
			clientPrefix = netaddr.Prefix{Addr: netaddr.Addr(cs.Addr), Bits: int(cs.SourcePrefixLen)}.Masked()
		} else {
			// Without ECS the server can only use the resolver address;
			// we model that as a /0 (generic answer).
			clientPrefix = netaddr.Prefix{}
		}
		fe, ok := w.Policy.Select(clientPrefix, w.Epoch)
		if !ok {
			resp.RCode = wire.RCodeRefused
			return resp
		}
		ttl := w.TTL
		if ttl == 0 {
			ttl = 300
		}
		resp.Answers = []wire.RR{wire.ARecord(w.Hostname, ttl, uint32(fe.Addr))}
		if hasECS {
			echo := wire.ClientSubnet{Addr: cs.Addr, SourcePrefixLen: cs.SourcePrefixLen, ScopePrefixLen: cs.SourcePrefixLen}
			resp.Additional = append(resp.Additional, wire.OPTRecord(4096, echo.Option()))
		}
		return resp
	}
}

// GeoPolicy steers each client prefix to the nearest enabled site, with
// sticky failover: when a drained site returns, each shifted client
// returns with probability ReturnProb (deterministic per prefix).
type GeoPolicy struct {
	sites   []*GeoSite
	geo     func(netaddr.Prefix) (lat, lon float64, ok bool)
	seed    uint64
	sticky  map[netaddr.Prefix]string
	returnP float64
}

// GeoSite is one site of a GeoPolicy.
type GeoSite struct {
	FrontEnd
	Enabled bool
}

// NewGeoPolicy builds a geo-nearest policy. geo resolves a client prefix
// to coordinates (the scenario wires it to the AS topology); returnProb is
// the fraction of clients that return to a site after it recovers from a
// drain.
func NewGeoPolicy(seed uint64, geo func(netaddr.Prefix) (float64, float64, bool), returnProb float64) *GeoPolicy {
	return &GeoPolicy{
		geo:     geo,
		seed:    seed,
		sticky:  make(map[netaddr.Prefix]string),
		returnP: returnProb,
	}
}

// AddSite registers a site; order is significant only for deterministic
// tie-breaks.
func (p *GeoPolicy) AddSite(label string, addr netaddr.Addr, lat, lon float64) {
	p.sites = append(p.sites, &GeoSite{
		FrontEnd: FrontEnd{Label: label, Addr: addr, Lat: lat, Lon: lon},
		Enabled:  true,
	})
}

// Drain disables a site. Clients fail over to their next-nearest enabled
// site and are remembered as displaced.
func (p *GeoPolicy) Drain(label string) { p.setEnabled(label, false) }

// Restore re-enables a site. Displaced clients return only with
// probability ReturnProb — the stickiness the paper observed at codfw.
func (p *GeoPolicy) Restore(label string) { p.setEnabled(label, true) }

func (p *GeoPolicy) setEnabled(label string, on bool) {
	for _, s := range p.sites {
		if s.Label == label {
			s.Enabled = on
			return
		}
	}
	panic(fmt.Sprintf("websim: unknown site %q", label))
}

// Sites lists the site labels in registration order.
func (p *GeoPolicy) Sites() []string {
	out := make([]string, len(p.sites))
	for i, s := range p.sites {
		out[i] = s.Label
	}
	return out
}

// nearest returns the closest enabled site to (lat, lon).
func (p *GeoPolicy) nearest(lat, lon float64) (*GeoSite, bool) {
	var best *GeoSite
	bestD := 0.0
	for _, s := range p.sites {
		if !s.Enabled {
			continue
		}
		d := astopo.GreatCircleKm(lat, lon, s.Lat, s.Lon)
		if best == nil || d < bestD {
			best, bestD = s, d
		}
	}
	return best, best != nil
}

// Select implements Policy.
func (p *GeoPolicy) Select(client netaddr.Prefix, _ int) (FrontEnd, bool) {
	lat, lon, ok := p.geo(client)
	if !ok {
		return FrontEnd{}, false
	}
	home := p.homeSite(lat, lon)
	if home == nil {
		return FrontEnd{}, false
	}
	if home.Enabled {
		if target, displaced := p.sticky[client]; displaced {
			// Home recovered from a drain. Sticky clients remain with
			// their failover site as long as it is up; the rest return.
			if s := p.site(target); s != nil && s.Enabled && p.stays(client) {
				return s.FrontEnd, true
			}
			delete(p.sticky, client)
		}
		return home.FrontEnd, true
	}
	// Home is drained: fail over to the nearest enabled site and remember
	// the displacement.
	natural, ok := p.nearest(lat, lon)
	if !ok {
		return FrontEnd{}, false
	}
	p.sticky[client] = natural.Label
	return natural.FrontEnd, true
}

// homeSite is the nearest site regardless of enablement — where the
// client "belongs".
func (p *GeoPolicy) homeSite(lat, lon float64) *GeoSite {
	var best *GeoSite
	bestD := 0.0
	for _, s := range p.sites {
		d := astopo.GreatCircleKm(lat, lon, s.Lat, s.Lon)
		if best == nil || d < bestD {
			best, bestD = s, d
		}
	}
	return best
}

func (p *GeoPolicy) site(label string) *GeoSite {
	for _, s := range p.sites {
		if s.Label == label {
			return s
		}
	}
	return nil
}

// stays decides, deterministically per prefix, whether a displaced client
// remains with its failover site after its home recovers.
func (p *GeoPolicy) stays(client netaddr.Prefix) bool {
	if _, displaced := p.sticky[client]; !displaced {
		return false
	}
	r := rng.New(p.seed ^ uint64(client.Addr)*0x9e3779b97f4a7c15 ^ uint64(client.Bits))
	return !r.Bool(p.returnP)
}

// ChurnPolicy models a hypergiant's front-end selection: a large fleet,
// generational reshuffles every GenerationLen epochs (only KeepProb of
// prefixes keep their assignment across a reshuffle), and per-epoch
// transient churn of DailyChurn of prefixes. A FleetEra string isolates
// entire fleet generations: eras never share front-ends, reproducing the
// paper's zero similarity between 2013 and 2024.
type ChurnPolicy struct {
	Seed          uint64
	Fleet         []FrontEnd
	GenerationLen int
	KeepProb      float64
	DailyChurn    float64
	FleetEra      string
}

// NewChurnFleet builds n synthetic front-ends for an era; addresses are
// carved from base sequentially and labels embed the era so cross-era
// catchments can never collide.
func NewChurnFleet(era string, n int, base netaddr.Addr) []FrontEnd {
	fleet := make([]FrontEnd, n)
	for i := range fleet {
		fleet[i] = FrontEnd{
			Label: fmt.Sprintf("fe-%s-%03d", era, i),
			Addr:  base + netaddr.Addr(i),
		}
	}
	return fleet
}

// Select implements Policy.
func (c *ChurnPolicy) Select(client netaddr.Prefix, epoch int) (FrontEnd, bool) {
	if len(c.Fleet) == 0 {
		return FrontEnd{}, false
	}
	genLen := c.GenerationLen
	if genLen <= 0 {
		genLen = 7
	}
	gen := epoch / genLen
	idx := c.baseAssignment(client, gen)
	// Transient daily churn: a fraction of prefixes serve from a
	// different front-end just for this epoch.
	day := rng.New(c.Seed ^ 0xdadc0de ^ uint64(client.Addr)*0xff51afd7ed558ccd ^ uint64(epoch)*0xc4ceb9fe1a85ec53)
	if day.Bool(c.DailyChurn) {
		return c.Fleet[day.Intn(len(c.Fleet))], true
	}
	return c.Fleet[idx], true
}

// baseAssignment walks the generation chain: generation 0 hashes fresh;
// each later generation keeps the previous assignment with KeepProb, else
// rehashes with the generation salt.
func (c *ChurnPolicy) baseAssignment(client netaddr.Prefix, gen int) int {
	h := func(g int) *rng.Source {
		return rng.New(c.Seed ^ uint64(client.Addr)*0x9e3779b97f4a7c15 ^ uint64(g)*0xbf58476d1ce4e5b9 ^ eraHash(c.FleetEra))
	}
	idx := h(0).Intn(len(c.Fleet))
	for g := 1; g <= gen; g++ {
		r := h(g)
		if !r.Bool(c.KeepProb) {
			idx = r.Intn(len(c.Fleet))
		}
	}
	return idx
}

func eraHash(era string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(era); i++ {
		h ^= uint64(era[i])
		h *= 1099511628211
	}
	return h
}

// FleetIndex builds a reverse map from front-end address to label, which
// the ECS mapper uses to decode A records into catchment labels.
func FleetIndex(fleets ...[]FrontEnd) map[netaddr.Addr]string {
	idx := make(map[netaddr.Addr]string)
	for _, fleet := range fleets {
		for _, fe := range fleet {
			idx[fe.Addr] = fe.Label
		}
	}
	return idx
}
