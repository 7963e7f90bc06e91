package bgpsim

import (
	"fmt"
	"sort"

	"fenrir/internal/astopo"
	"fenrir/internal/netaddr"
)

// Site is one anycast site of a Service: a label (airport code in the
// paper's figures), the AS where the site announces the service prefix,
// and its current traffic-engineering state.
type Site struct {
	Name    string
	AS      astopo.ASN
	Prepend int
	// Enabled is false while the site is drained (withdrawn from BGP),
	// the maintenance action §3's ground truth calls a "site drain".
	Enabled bool
}

// Service is an anycast (or unicast, with one site) service: a prefix plus
// its current site set. Mutating site state between epochs and recomputing
// the RIB is how scenarios script drains and TE events.
type Service struct {
	Name   string
	Prefix netaddr.Prefix
	sites  map[string]*Site
	order  []string
}

// NewService creates a service on the given prefix with no sites.
func NewService(name string, prefix netaddr.Prefix) *Service {
	return &Service{Name: name, Prefix: prefix, sites: make(map[string]*Site)}
}

// AddSite registers a new enabled site. It panics on duplicate names,
// which would indicate a scenario bug.
func (s *Service) AddSite(name string, as astopo.ASN) *Site {
	if _, dup := s.sites[name]; dup {
		panic(fmt.Sprintf("bgpsim: duplicate site %q", name))
	}
	site := &Site{Name: name, AS: as, Enabled: true}
	s.sites[name] = site
	s.order = append(s.order, name)
	sort.Strings(s.order)
	return site
}

// RemoveSite permanently deletes a site (the paper's ARI shutdown).
func (s *Service) RemoveSite(name string) {
	if _, ok := s.sites[name]; !ok {
		return
	}
	delete(s.sites, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Site returns the named site, or nil.
func (s *Service) Site(name string) *Site { return s.sites[name] }

// SiteNames returns all site names sorted, including drained ones.
func (s *Service) SiteNames() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Drain withdraws a site; Enable restores it. Both are idempotent and
// panic on unknown sites.
func (s *Service) Drain(name string)  { s.mustSite(name).Enabled = false }
func (s *Service) Enable(name string) { s.mustSite(name).Enabled = true }

// SetPrepend adjusts a site's AS-path prepending (traffic engineering).
func (s *Service) SetPrepend(name string, n int) { s.mustSite(name).Prepend = n }

func (s *Service) mustSite(name string) *Site {
	site := s.sites[name]
	if site == nil {
		panic(fmt.Sprintf("bgpsim: unknown site %q in service %s", name, s.Name))
	}
	return site
}

// Announcements renders the current site state as BGP announcements;
// drained sites are simply absent.
func (s *Service) Announcements() []Announcement {
	var out []Announcement
	for _, name := range s.order {
		site := s.sites[name]
		if !site.Enabled {
			continue
		}
		out = append(out, Announcement{Origin: site.AS, Site: site.Name, Prepend: site.Prepend})
	}
	return out
}

// ComputeRIB solves routing for the service's current state.
func (s *Service) ComputeRIB(g *astopo.Graph, pol *Policy) (*RIB, error) {
	anns := s.Announcements()
	if len(anns) == 0 {
		return nil, fmt.Errorf("bgpsim: service %s has no enabled sites", s.Name)
	}
	return Compute(g, anns, pol)
}

// PathOracle answers "what AS path does traffic from src take toward any
// destination address" by lazily computing one RIB per destination-origin
// AS and caching it. This is the control-plane model under the traceroute
// engine: forwarding on the Internet is destination-based, so all probes
// toward prefixes of one origin share a path from a given source.
type PathOracle struct {
	g     *astopo.Graph
	pol   *Policy
	cache map[astopo.ASN]*RIB
}

// NewPathOracle builds an oracle for the current topology and policy.
// The oracle caches aggressively; create a fresh oracle after any topology
// or policy mutation.
func NewPathOracle(g *astopo.Graph, pol *Policy) *PathOracle {
	return &PathOracle{g: g, pol: pol, cache: make(map[astopo.ASN]*RIB)}
}

// PathTo returns the AS path from src to the origin of addr, inclusive,
// or nil when the address is unrouted or unreachable.
func (o *PathOracle) PathTo(src astopo.ASN, addr netaddr.Addr) []astopo.ASN {
	origin, ok := o.g.OriginOf(addr)
	if !ok {
		return nil
	}
	rib, ok := o.cache[origin]
	if !ok {
		var err error
		rib, err = Compute(o.g, []Announcement{{Origin: origin}}, o.pol)
		if err != nil {
			// Unreachable under a non-convergent policy: cache a nil to
			// avoid recomputation. Policies in this repo converge, so
			// this path indicates a scenario bug; record as unreachable.
			rib = &RIB{g: o.g, routes: map[astopo.ASN]Route{}}
		}
		o.cache[origin] = rib
	}
	return rib.Path(src)
}
