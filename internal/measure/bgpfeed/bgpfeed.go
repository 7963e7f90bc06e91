// Package bgpfeed implements a RouteViews/RIPE-RIS-style BGP route
// collector as a Fenrir data source. The paper's related-work section
// notes that "in principle, our approach could use control-plane
// information as a data source, demonstrating that is future work" — this
// package is that demonstration on the simulated Internet.
//
// The collector maintains passive BGP sessions with a set of peer ASes.
// Each peer exports its current best route toward the monitored service
// as a real RFC 4271 UPDATE message (4-octet AS paths); the collector
// parses the feed and distils origin catchments: which anycast site
// (origin AS) each peer's route leads to — the control-plane analogue of
// the Atlas mesh. The snapshot's AS paths are the input to AS-hegemony
// analysis.
//
// Everything crosses a real encode/decode boundary, so the feed is bit-
// compatible with what a BGP session would carry on the wire.
package bgpfeed

import (
	"fmt"

	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/core"
	"fenrir/internal/faults"
	"fenrir/internal/netaddr"
	"fenrir/internal/timeline"
	"fenrir/internal/wire"
)

// Collector peers with a fixed set of ASes and snapshots their routes
// toward one service.
type Collector struct {
	G     *astopo.Graph
	Peers []astopo.ASN
	// CollectorASN identifies the collector in OPEN messages.
	CollectorASN uint32
	// Faults, when set, passes each session's byte stream through the
	// injector (corruption, truncation) before the collector parses it.
	// Nil leaves the stream untouched.
	Faults *faults.Injector
	// Backoff meters session re-reads after a parse failure; nil means a
	// failed session degrades immediately.
	Backoff *faults.Backoff
}

// NewCollector validates the peer list against the topology.
func NewCollector(g *astopo.Graph, peers []astopo.ASN) (*Collector, error) {
	for _, p := range peers {
		if g.AS(p) == nil {
			return nil, fmt.Errorf("bgpfeed: unknown peer AS%d", p)
		}
	}
	return &Collector{G: g, Peers: peers, CollectorASN: 6447}, nil
}

// Route is one parsed table entry: the peer it came from and the AS path
// it advertised (peer first, origin last). Withdrawn routes have a nil
// path.
type Route struct {
	Peer   astopo.ASN
	Prefix netaddr.Prefix
	ASPath []astopo.ASN
}

// Origin returns the path's origin AS; ok=false for withdrawn routes.
func (r Route) Origin() (astopo.ASN, bool) {
	if len(r.ASPath) == 0 {
		return 0, false
	}
	return r.ASPath[len(r.ASPath)-1], true
}

// Snapshot is one collection round: every peer's current route, plus the
// raw session byte streams (kept for tests).
type Snapshot struct {
	Routes []Route
	// Raw holds the per-peer session bytes (OPEN + UPDATE or withdraw).
	Raw map[astopo.ASN][]byte
}

// Collect snapshots every peer's best route toward the service by
// round-tripping it through real BGP messages: the peer side encodes an
// OPEN and an UPDATE (or a withdraw when unreachable), the collector side
// parses the stream back. rib must be the service's current RIB.
func (c *Collector) Collect(svc *bgpsim.Service, rib *bgpsim.RIB) (*Snapshot, error) {
	snap := &Snapshot{Raw: make(map[astopo.ASN][]byte, len(c.Peers))}
	nlri := wire.BGPPrefix{Addr: uint32(svc.Prefix.Addr), Bits: uint8(svc.Prefix.Bits)}
	for _, peer := range c.Peers {
		// --- peer side: encode the session ---
		stream := wire.MarshalOpen(&wire.BGPOpenMsg{
			ASN: uint32(peer), HoldTime: 180, BGPID: uint32(peer),
		})
		var path []astopo.ASN
		if rib != nil {
			path = rib.Path(peer)
		}
		if path != nil {
			asPath := make([]uint32, len(path))
			for i, a := range path {
				asPath[i] = uint32(a)
			}
			upd, err := wire.MarshalUpdate(&wire.BGPUpdateMsg{
				Origin:   wire.OriginIGP,
				ASPath:   asPath,
				NextHop:  uint32(c.G.AS(peer).ASN), // symbolic next hop
				Announce: []wire.BGPPrefix{nlri},
			})
			if err != nil {
				return nil, fmt.Errorf("bgpfeed: encode AS%d: %w", peer, err)
			}
			stream = append(stream, upd...)
		} else {
			upd, err := wire.MarshalUpdate(&wire.BGPUpdateMsg{
				Withdrawn: []wire.BGPPrefix{nlri},
			})
			if err != nil {
				return nil, fmt.Errorf("bgpfeed: encode withdraw AS%d: %w", peer, err)
			}
			stream = append(stream, upd...)
		}
		stream = append(stream, wire.MarshalKeepalive()...)

		// --- collector side: parse it back, retrying the (re-faulted)
		// stream under the backoff budget; a session that stays unparsable
		// degrades to a withdrawn route and is quarantined rather than
		// failing the whole collection round ---
		var route Route
		var err error
		for attempt := 0; ; attempt++ {
			seen := c.Faults.Stream("bgpfeed", stream)
			snap.Raw[peer] = seen
			route, err = parseSession(peer, svc.Prefix, seen)
			if err == nil || !c.Backoff.Allow(attempt+1) {
				break
			}
		}
		if err != nil {
			c.Faults.Quarantine("bgp-session", 1)
			route = Route{Peer: peer, Prefix: svc.Prefix}
		}
		snap.Routes = append(snap.Routes, route)
	}
	return snap, nil
}

// parseSession consumes one peer's byte stream and extracts its route.
func parseSession(peer astopo.ASN, prefix netaddr.Prefix, stream []byte) (Route, error) {
	route := Route{Peer: peer, Prefix: prefix}
	sawOpen := false
	for off := 0; off < len(stream); {
		m, n, err := wire.UnmarshalBGP(stream[off:])
		if err != nil {
			return Route{}, fmt.Errorf("bgpfeed: session AS%d: %w", peer, err)
		}
		off += n
		switch m.Type {
		case wire.BGPOpen:
			if m.Open.ASN != uint32(peer) {
				return Route{}, fmt.Errorf("bgpfeed: OPEN from AS%d on AS%d session", m.Open.ASN, peer)
			}
			sawOpen = true
		case wire.BGPUpdate:
			if !sawOpen {
				return Route{}, fmt.Errorf("bgpfeed: UPDATE before OPEN on AS%d session", peer)
			}
			if len(m.Update.Announce) > 0 {
				route.ASPath = route.ASPath[:0]
				for _, as := range m.Update.ASPath {
					route.ASPath = append(route.ASPath, astopo.ASN(as))
				}
			}
			for _, w := range m.Update.Withdrawn {
				if netaddr.Addr(w.Addr) == prefix.Addr && int(w.Bits) == prefix.Bits {
					route.ASPath = nil
				}
			}
		}
	}
	return route, nil
}

// Space builds the Fenrir space over the collector's peers.
func (c *Collector) Space() *core.Space {
	ids := make([]string, len(c.Peers))
	for i, p := range c.Peers {
		ids[i] = fmt.Sprintf("peer-AS%d", p)
	}
	return core.NewSpace(ids)
}

// OriginVector builds the control-plane catchment vector: each peer is
// assigned the site whose origin AS terminates its path. siteByOrigin
// maps origin ASes to site labels (build it with SiteIndex). Withdrawn
// peers stay unknown; unexpected origins become "other".
func (snap *Snapshot) OriginVector(space *core.Space, epoch timeline.Epoch, siteByOrigin map[astopo.ASN]string) *core.Vector {
	v := space.NewVector(epoch)
	for i, r := range snap.Routes {
		origin, ok := r.Origin()
		if !ok {
			continue
		}
		if site, known := siteByOrigin[origin]; known {
			v.Set(i, site)
		} else {
			v.Set(i, core.SiteOther)
		}
	}
	return v
}

// Paths returns the snapshot's AS paths (skipping withdrawn peers), the
// input shape the hegemony package consumes.
func (snap *Snapshot) Paths() [][]astopo.ASN {
	var out [][]astopo.ASN
	for _, r := range snap.Routes {
		if len(r.ASPath) > 0 {
			out = append(out, r.ASPath)
		}
	}
	return out
}

// SiteIndex builds the origin→site map for a service's current state.
func SiteIndex(svc *bgpsim.Service) map[astopo.ASN]string {
	out := make(map[astopo.ASN]string)
	for _, name := range svc.SiteNames() {
		s := svc.Site(name)
		out[s.AS] = s.Name
	}
	return out
}
