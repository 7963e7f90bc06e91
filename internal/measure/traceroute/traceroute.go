// Package traceroute implements a scamper-style traceroute engine and the
// hop-vector extraction behind the paper's multi-homed-enterprise study
// (§2.3.2, §4.1): UDP probes with increasing TTL toward every /24 in a
// hitlist, capped at 10 hops, with per-hop retries; then a "focus" stage
// that reads off which AS carries each destination at hop k, producing the
// catchment vector Fenrir analyses.
//
// Gaps are real here: routers that filter ICMP time out, routers numbered
// from RFC1918 space are unattributable, and both must be repaired by the
// spatial rule the paper describes — propagate the nearest viable hop.
package traceroute

import (
	"fmt"
	"strconv"

	"fenrir/internal/astopo"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/faults"
	"fenrir/internal/netaddr"
	"fenrir/internal/timeline"
)

// Hop is one row of a traceroute: the TTL, the responding address (zero
// when silent), and whether the hop could be attributed to an AS.
type Hop struct {
	TTL   int
	Addr  netaddr.Addr
	RTTms float64
	// Responded is false for a timeout at this TTL.
	Responded bool
	// AS is the attributed owner; Attributed is false for silent hops and
	// private/unrecognizable addresses.
	AS         astopo.ASN
	Attributed bool
}

// Trace is a full traceroute toward one destination block.
type Trace struct {
	Dst  netaddr.Block
	Hops []Hop
	// Reached is true when the destination answered (port unreachable)
	// at some TTL <= MaxHops.
	Reached bool
}

// Prober runs traceroute scans out of one enterprise vantage point.
type Prober struct {
	Net     dataplane.Plane
	SrcAS   astopo.ASN
	SrcAddr netaddr.Addr
	// MaxHops mirrors the paper's 10-hop cap.
	MaxHops int
	// Backoff meters per-TTL retries of silent hops (see
	// faults.Injector.NewBackoff); nil never retries.
	Backoff *faults.Backoff
}

// NewProber constructs a prober with the paper's parameters: a 10-hop cap
// and, as scamper does by default, one retry per silent hop.
func NewProber(net dataplane.Plane, srcAS astopo.ASN, srcAddr netaddr.Addr) *Prober {
	var noFaults *faults.Injector
	return &Prober{Net: net, SrcAS: srcAS, SrcAddr: srcAddr, MaxHops: 10,
		Backoff: noFaults.NewBackoff("traceroute", 1)}
}

// Trace probes one destination block.
func (p *Prober) Trace(dst netaddr.Block, epoch timeline.Epoch) Trace {
	tr := Trace{Dst: dst}
	target := dst.Host(1)
	basePort := uint16(33000)
	for ttl := 1; ttl <= p.MaxHops; ttl++ {
		var res dataplane.ProbeResult
		got := false
		for attempt := 0; ; attempt++ {
			res = p.Net.ProbeTTL(p.SrcAS, p.SrcAddr, target, basePort+uint16(ttl), ttl, int(epoch))
			got = res.Kind != dataplane.Timeout
			if got || !p.Backoff.Allow(attempt+1) {
				break
			}
		}
		hop := Hop{TTL: ttl}
		if got {
			hop.Responded = true
			hop.Addr = res.From
			hop.RTTms = res.RTTms
			if res.Kind == dataplane.PortUnreachable {
				// Destination reached: attribute to its origin AS.
				if as, ok := p.Net.Graph().OriginOf(res.From); ok {
					hop.AS, hop.Attributed = as, true
				}
				tr.Hops = append(tr.Hops, hop)
				tr.Reached = true
				return tr
			}
			if !res.From.IsPrivate() {
				if as, ok := p.Net.RouterOwner(res.From); ok {
					hop.AS, hop.Attributed = as, true
				}
			}
		}
		tr.Hops = append(tr.Hops, hop)
	}
	return tr
}

// Scan traces every block in the hitlist.
func (p *Prober) Scan(hitlist []netaddr.Block, epoch timeline.Epoch) []Trace {
	out := make([]Trace, len(hitlist))
	for i, b := range hitlist {
		out[i] = p.Trace(b, epoch)
	}
	return out
}

// Space builds the analysis space over a hitlist: one network per
// destination /24.
func Space(hitlist []netaddr.Block) *core.Space {
	ids := make([]string, len(hitlist))
	for i, b := range hitlist {
		ids[i] = b.String()
	}
	return core.NewSpace(ids)
}

// HopLabel reads the catchment label of a trace at the given hop (1-based
// TTL): the AS identifier at that distance. Unattributable hops are
// repaired by propagating the nearest viable hop (§2.4): the closest
// attributed hop within reach, with earlier hops winning ties. ok=false
// when nothing viable is in reach — the vector element stays unknown.
func HopLabel(tr Trace, hop, maxReach int) (string, bool) {
	if hop < 1 {
		return "", false
	}
	pick := func(idx int) (string, bool) {
		if idx < 0 || idx >= len(tr.Hops) {
			return "", false
		}
		h := tr.Hops[idx]
		if !h.Attributed {
			return "", false
		}
		return "AS" + strconv.FormatUint(uint64(h.AS), 10), true
	}
	if label, ok := pick(hop - 1); ok {
		return label, true
	}
	for d := 1; d <= maxReach; d++ {
		if label, ok := pick(hop - 1 - d); ok {
			return label, true
		}
		if label, ok := pick(hop - 1 + d); ok {
			return label, true
		}
	}
	return "", false
}

// NotInSpaceError reports a trace whose destination is absent from the
// analysis space — an ingest mismatch (stale hitlist, corrupted trace)
// that callers should quarantine rather than crash on.
type NotInSpaceError struct {
	Dst netaddr.Block
}

func (e *NotInSpaceError) Error() string {
	return fmt.Sprintf("traceroute: destination %v not in space", e.Dst)
}

// VectorAtHop converts a scan into the Fenrir vector "catchments at hop
// k": each destination block is labelled with the AS its traffic crosses
// at that distance. This is the adjustable "focus" of §2.3.2 — hop 2 shows
// immediate upstreams, hop 3 their transits, and so on. A trace whose
// destination is not in the space yields a *NotInSpaceError alongside the
// vector built from the remaining traces, so callers can degrade
// gracefully (quarantine the stray, keep the epoch).
func VectorAtHop(space *core.Space, traces []Trace, hop int, epoch timeline.Epoch) (*core.Vector, error) {
	v := space.NewVector(epoch)
	var firstErr error
	for _, tr := range traces {
		n := space.NetworkIndex(tr.Dst.String())
		if n < 0 {
			if firstErr == nil {
				firstErr = &NotInSpaceError{Dst: tr.Dst}
			}
			continue
		}
		if label, ok := HopLabel(tr, hop, 2); ok {
			v.Set(n, label)
		}
	}
	return v, firstErr
}

// FlowsAtHops extracts, for a Sankey rendering, the per-destination AS
// sequence across a range of hops [fromHop, toHop]; destinations with an
// unattributable hop anywhere in the window are skipped. The result maps
// each distinct sequence to the number of destinations following it.
func FlowsAtHops(traces []Trace, fromHop, toHop int) map[string]int {
	flows := make(map[string]int)
	for _, tr := range traces {
		key := ""
		ok := true
		for h := fromHop; h <= toHop; h++ {
			label, viable := HopLabel(tr, h, 2)
			if !viable {
				ok = false
				break
			}
			if key != "" {
				key += ">"
			}
			key += label
		}
		if ok {
			flows[key]++
		}
	}
	return flows
}
