package bgpfeed

import (
	"testing"

	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/core"
	"fenrir/internal/faults"
	"fenrir/internal/hegemony"
	"fenrir/internal/netaddr"
)

// world builds a topology with an anycast service on two tier-2s and a
// collector peering with all stubs.
func world(t testing.TB) (*astopo.Graph, *bgpsim.Service, *bgpsim.RIB, *Collector) {
	t.Helper()
	gcfg := astopo.DefaultGenConfig(77)
	gcfg.StubsPerRegion = 10
	g := astopo.Generate(gcfg)

	var t2NA, t2EU astopo.ASN
	for _, a := range g.ASNs() {
		as := g.AS(a)
		if as.Tier != astopo.Tier2 {
			continue
		}
		switch as.Region.Name {
		case "NA":
			if t2NA == 0 {
				t2NA = a
			}
		case "EU":
			if t2EU == 0 {
				t2EU = a
			}
		}
	}
	svc := bgpsim.NewService("root", netaddr.MustParsePrefix("199.9.14.0/24"))
	svc.AddSite("LAX", t2NA)
	svc.AddSite("AMS", t2EU)
	rib, err := svc.ComputeRIB(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var peers []astopo.ASN
	for _, a := range g.ASNs() {
		if g.AS(a).Tier == astopo.Stub {
			peers = append(peers, a)
		}
	}
	c, err := NewCollector(g, peers)
	if err != nil {
		t.Fatal(err)
	}
	return g, svc, rib, c
}

func TestCollectRoundTripsThroughWire(t *testing.T) {
	_, svc, rib, c := world(t)
	snap, err := c.Collect(svc, rib)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Routes) != len(c.Peers) {
		t.Fatalf("routes = %d, peers = %d", len(snap.Routes), len(c.Peers))
	}
	for i, r := range snap.Routes {
		peer := c.Peers[i]
		want := rib.Path(peer)
		if len(r.ASPath) != len(want) {
			t.Fatalf("peer AS%d: wire path %v != rib path %v", peer, r.ASPath, want)
		}
		for j := range want {
			if r.ASPath[j] != want[j] {
				t.Fatalf("peer AS%d: wire path %v != rib path %v", peer, r.ASPath, want)
			}
		}
		if len(snap.Raw[peer]) == 0 {
			t.Fatalf("peer AS%d has no raw session bytes", peer)
		}
	}
}

func TestOriginVectorMatchesDataPlane(t *testing.T) {
	_, svc, rib, c := world(t)
	snap, err := c.Collect(svc, rib)
	if err != nil {
		t.Fatal(err)
	}
	space := c.Space()
	v := snap.OriginVector(space, 0, SiteIndex(svc))
	for i, peer := range c.Peers {
		got, ok := v.Site(i)
		if !ok {
			t.Fatalf("peer AS%d unknown in control-plane vector", peer)
		}
		if want := rib.Site(peer); got != want {
			t.Fatalf("peer AS%d: control-plane site %q != data-plane %q", peer, got, want)
		}
	}
}

func TestControlPlaneSeesDrain(t *testing.T) {
	g, svc, rib, c := world(t)
	space := c.Space()
	snapBefore, err := c.Collect(svc, rib)
	if err != nil {
		t.Fatal(err)
	}
	before := snapBefore.OriginVector(space, 0, SiteIndex(svc))
	if before.Aggregate()["LAX"] == 0 {
		t.Skip("seed gave LAX no control-plane catchment")
	}

	svc.Drain("LAX")
	rib2, err := svc.ComputeRIB(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapAfter, err := c.Collect(svc, rib2)
	if err != nil {
		t.Fatal(err)
	}
	after := snapAfter.OriginVector(space, 1, SiteIndex(svc))
	if after.Aggregate()["LAX"] != 0 {
		t.Fatal("control plane still shows LAX after drain")
	}
	// Fenrir quantifies the change on the control-plane feed just like on
	// data-plane vectors.
	phi := core.Gower(before, after, nil, core.PessimisticUnknown)
	if phi >= 1 {
		t.Fatalf("drain invisible in control plane: Phi = %v", phi)
	}
	tm := core.Transition(before, after, nil)
	if tm.At("LAX", "AMS") == 0 {
		t.Fatal("no LAX->AMS control-plane flow after drain")
	}
}

func TestWithdrawnRouteStaysUnknown(t *testing.T) {
	g, svc, _, c := world(t)
	// Add an isolated peer with no connectivity: its session carries a
	// withdraw and the vector keeps it unknown.
	g.AddAS(&astopo.AS{ASN: 65000, Tier: astopo.Stub, Region: astopo.Africa})
	c2, err := NewCollector(g, append(append([]astopo.ASN{}, c.Peers...), 65000))
	if err != nil {
		t.Fatal(err)
	}
	rib, err := svc.ComputeRIB(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c2.Collect(svc, rib)
	if err != nil {
		t.Fatal(err)
	}
	space := c2.Space()
	v := snap.OriginVector(space, 0, SiteIndex(svc))
	idx := space.NetworkIndex("peer-AS65000")
	if _, ok := v.Site(idx); ok {
		t.Fatal("unreachable peer has a catchment")
	}
	// And its raw stream must contain a withdraw UPDATE (session parse
	// already verified it decodes).
	if len(snap.Raw[65000]) == 0 {
		t.Fatal("no session bytes for withdrawn peer")
	}
}

// TestCollectDegradesGracefullyUnderStreamFaults runs Collect with an
// aggressive corrupt/truncate fault layer on the session streams: peers
// whose transcript no longer parses within the retry budget must come
// back as withdrawn routes (index-aligned with Peers, unknown in the
// vector) and be counted as quarantined — never an error or a panic.
func TestCollectDegradesGracefullyUnderStreamFaults(t *testing.T) {
	_, svc, rib, c := world(t)
	inj := faults.New(faults.Profile{Name: "t", CorruptRate: 0.7, TruncateRate: 0.7}, 31, nil)
	c.Faults = inj
	c.Backoff = inj.NewBackoff("bgpfeed", 0)
	snap, err := c.Collect(svc, rib)
	if err != nil {
		t.Fatalf("faulted collect errored instead of degrading: %v", err)
	}
	if len(snap.Routes) != len(c.Peers) {
		t.Fatalf("routes = %d, peers = %d; index alignment lost", len(snap.Routes), len(c.Peers))
	}
	rep := inj.Report()
	if rep.TotalInjected() == 0 {
		t.Fatal("fault layer injected nothing at rate 0.7")
	}
	quarantined := rep.Quarantined["bgp-session"]
	if quarantined == 0 {
		t.Fatal("no session was quarantined at corrupt+truncate 0.7")
	}
	space := c.Space()
	v := snap.OriginVector(space, 0, SiteIndex(svc))
	unknown := 0
	for i, r := range snap.Routes {
		if r.Peer != c.Peers[i] {
			t.Fatalf("route %d carries peer AS%d, want AS%d", i, r.Peer, c.Peers[i])
		}
		if len(r.ASPath) == 0 {
			if _, ok := v.Site(i); ok {
				t.Fatalf("withdrawn peer AS%d still has a catchment", r.Peer)
			}
			unknown++
		}
	}
	if unknown < quarantined {
		t.Fatalf("%d withdrawn routes < %d quarantined sessions", unknown, quarantined)
	}
	// Retries were granted (and bounded) by the budget.
	if rep.Retries["bgpfeed"] == 0 {
		t.Fatal("no retries recorded under persistent stream faults")
	}
}

func TestNewCollectorRejectsUnknownPeer(t *testing.T) {
	g, _, _, _ := world(t)
	if _, err := NewCollector(g, []astopo.ASN{424242}); err == nil {
		t.Fatal("unknown peer accepted")
	}
}

func TestHegemonyOverFeed(t *testing.T) {
	_, svc, rib, c := world(t)
	snap, err := c.Collect(svc, rib)
	if err != nil {
		t.Fatal(err)
	}
	scores := hegemony.Compute(snap.Paths(), hegemony.TrimFraction)
	if len(scores) == 0 {
		t.Fatal("no hegemony scores from feed")
	}
	top := scores.Top(3)
	// The top transit must be one of the tier-1/tier-2 core, not a stub.
	for _, as := range top {
		if as >= 10000 {
			t.Fatalf("stub AS%d among top transits", as)
		}
	}
	for as, h := range scores {
		if h < 0 || h > 1 {
			t.Fatalf("hegemony(%d) = %v out of range", as, h)
		}
	}
}
