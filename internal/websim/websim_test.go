package websim

import (
	"testing"

	"fenrir/internal/netaddr"
	"fenrir/internal/wire"
)

func prefix(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

// flatGeo maps prefixes onto a line: first octet = longitude degrees.
func flatGeo(p netaddr.Prefix) (float64, float64, bool) {
	return 0, float64(p.Addr >> 24), true
}

func newTestGeoPolicy(returnProb float64) *GeoPolicy {
	p := NewGeoPolicy(42, flatGeo, returnProb)
	p.AddSite("west", netaddr.MustParseAddr("198.51.100.1"), 0, 10)
	p.AddSite("east", netaddr.MustParseAddr("198.51.100.2"), 0, 120)
	return p
}

func TestGeoPolicyNearest(t *testing.T) {
	p := newTestGeoPolicy(1)
	fe, ok := p.Select(prefix("20.0.0.0/24"), 0)
	if !ok || fe.Label != "west" {
		t.Fatalf("lon 20 -> %v ok=%v, want west", fe.Label, ok)
	}
	fe, ok = p.Select(prefix("110.0.0.0/24"), 0)
	if !ok || fe.Label != "east" {
		t.Fatalf("lon 110 -> %v, want east", fe.Label)
	}
}

func TestGeoPolicyDrainAndFullReturn(t *testing.T) {
	p := newTestGeoPolicy(1) // everyone returns
	c := prefix("20.0.0.0/24")
	p.Drain("west")
	if fe, _ := p.Select(c, 1); fe.Label != "east" {
		t.Fatalf("drained selection = %v, want east", fe.Label)
	}
	p.Restore("west")
	if fe, _ := p.Select(c, 2); fe.Label != "west" {
		t.Fatalf("after restore = %v, want west (returnProb 1)", fe.Label)
	}
}

func TestGeoPolicyStickyFailover(t *testing.T) {
	p := newTestGeoPolicy(0.3) // only 30% return
	var clients []netaddr.Prefix
	for i := 0; i < 400; i++ {
		clients = append(clients, netaddr.Prefix{Addr: netaddr.Addr(20)<<24 | netaddr.Addr(i)<<8, Bits: 24})
	}
	for _, c := range clients {
		if fe, _ := p.Select(c, 0); fe.Label != "west" {
			t.Fatal("setup: client not at west")
		}
	}
	p.Drain("west")
	for _, c := range clients {
		if fe, _ := p.Select(c, 1); fe.Label != "east" {
			t.Fatal("drain did not shift client")
		}
	}
	p.Restore("west")
	returned := 0
	for _, c := range clients {
		if fe, _ := p.Select(c, 2); fe.Label == "west" {
			returned++
		}
	}
	frac := float64(returned) / float64(len(clients))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("returned fraction %.2f, want near 0.3", frac)
	}
	// Stickiness is stable: repeating the round gives the same answer.
	again := 0
	for _, c := range clients {
		if fe, _ := p.Select(c, 3); fe.Label == "west" {
			again++
		}
	}
	if again != returned {
		t.Fatalf("sticky set changed between epochs: %d then %d", returned, again)
	}
}

func TestGeoPolicyAllDrained(t *testing.T) {
	p := newTestGeoPolicy(1)
	p.Drain("west")
	p.Drain("east")
	if _, ok := p.Select(prefix("20.0.0.0/24"), 0); ok {
		t.Fatal("selection succeeded with all sites drained")
	}
}

func TestGeoPolicyUnknownGeo(t *testing.T) {
	p := NewGeoPolicy(1, func(netaddr.Prefix) (float64, float64, bool) { return 0, 0, false }, 1)
	p.AddSite("only", 1, 0, 0)
	if _, ok := p.Select(prefix("20.0.0.0/24"), 0); ok {
		t.Fatal("selection succeeded without geolocation")
	}
}

func TestChurnPolicyWithinWeekStability(t *testing.T) {
	c := &ChurnPolicy{
		Seed: 9, Fleet: NewChurnFleet("24", 300, netaddr.MustParseAddr("203.0.0.0")),
		GenerationLen: 7, KeepProb: 0.25, DailyChurn: 0.0,
	}
	p := prefix("20.1.2.0/24")
	fe0, _ := c.Select(p, 0)
	for e := 1; e < 7; e++ {
		fe, _ := c.Select(p, e)
		if fe.Label != fe0.Label {
			t.Fatalf("assignment changed within generation at epoch %d", e)
		}
	}
}

func TestChurnPolicyCrossGenerationKeepRate(t *testing.T) {
	c := &ChurnPolicy{
		Seed: 9, Fleet: NewChurnFleet("24", 300, netaddr.MustParseAddr("203.0.0.0")),
		GenerationLen: 7, KeepProb: 0.25, DailyChurn: 0,
	}
	kept, total := 0, 2000
	for i := 0; i < total; i++ {
		p := netaddr.Prefix{Addr: netaddr.Addr(20)<<24 | netaddr.Addr(i)<<8, Bits: 24}
		a, _ := c.Select(p, 6)
		b, _ := c.Select(p, 7) // next generation
		if a.Label == b.Label {
			kept++
		}
	}
	frac := float64(kept) / float64(total)
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("cross-generation keep rate %.3f, want near 0.25", frac)
	}
}

func TestChurnPolicyDailyChurnRate(t *testing.T) {
	c := &ChurnPolicy{
		Seed: 9, Fleet: NewChurnFleet("24", 300, netaddr.MustParseAddr("203.0.0.0")),
		GenerationLen: 7, KeepProb: 0.25, DailyChurn: 0.1,
	}
	same, total := 0, 2000
	for i := 0; i < total; i++ {
		p := netaddr.Prefix{Addr: netaddr.Addr(20)<<24 | netaddr.Addr(i)<<8, Bits: 24}
		a, _ := c.Select(p, 1)
		b, _ := c.Select(p, 2) // same generation, different day
		if a.Label == b.Label {
			same++
		}
	}
	frac := float64(same) / float64(total)
	// P(same) ~ (1-0.1)^2 = 0.81 plus tiny collision terms.
	if frac < 0.76 || frac > 0.87 {
		t.Fatalf("within-week day similarity %.3f, want near 0.81", frac)
	}
}

func TestChurnPolicyErasDisjoint(t *testing.T) {
	old := &ChurnPolicy{Seed: 9, Fleet: NewChurnFleet("13", 100, netaddr.MustParseAddr("198.18.0.0")), FleetEra: "13"}
	now := &ChurnPolicy{Seed: 9, Fleet: NewChurnFleet("24", 100, netaddr.MustParseAddr("203.0.0.0")), FleetEra: "24"}
	for i := 0; i < 200; i++ {
		p := netaddr.Prefix{Addr: netaddr.Addr(20)<<24 | netaddr.Addr(i)<<8, Bits: 24}
		a, _ := old.Select(p, 0)
		b, _ := now.Select(p, 0)
		if a.Label == b.Label {
			t.Fatalf("eras share label %q", a.Label)
		}
	}
}

func TestChurnPolicyEmptyFleet(t *testing.T) {
	c := &ChurnPolicy{Seed: 1}
	if _, ok := c.Select(prefix("1.2.3.0/24"), 0); ok {
		t.Fatal("empty fleet served a client")
	}
}

func TestWebsiteHandlerECS(t *testing.T) {
	p := newTestGeoPolicy(1)
	w := &Website{Hostname: "www.example.org", Policy: p}
	h := w.Handler()
	q := &wire.DNSMessage{
		ID:        5,
		Questions: []wire.Question{{Name: "www.example.org", Type: wire.TypeA, Class: wire.ClassIN}},
		Additional: []wire.RR{wire.OPTRecord(4096,
			wire.ClientSubnet{Addr: uint32(netaddr.MustParseAddr("110.0.0.0")), SourcePrefixLen: 24}.Option())},
	}
	resp := h(q, "", 0)
	if resp.RCode != wire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	a, err := wire.AAddr(resp.Answers[0])
	if err != nil || netaddr.Addr(a) != netaddr.MustParseAddr("198.51.100.2") {
		t.Fatalf("A = %v err=%v, want east front-end", a, err)
	}
	// Scope echoed.
	cs, ok, err := wire.ECSFromMessage(resp)
	if err != nil || !ok || cs.ScopePrefixLen != 24 {
		t.Fatalf("ECS echo = %+v ok=%v err=%v", cs, ok, err)
	}
}

func TestWebsiteHandlerWrongName(t *testing.T) {
	w := &Website{Hostname: "www.example.org", Policy: newTestGeoPolicy(1)}
	q := &wire.DNSMessage{ID: 1, Questions: []wire.Question{{Name: "other.example", Type: wire.TypeA, Class: wire.ClassIN}}}
	if resp := w.Handler()(q, "", 0); resp.RCode != wire.RCodeNXDomain {
		t.Fatalf("RCode = %d, want NXDomain", resp.RCode)
	}
}

func TestFleetIndexAndLabels(t *testing.T) {
	fleet := NewChurnFleet("x", 3, netaddr.MustParseAddr("203.0.0.0"))
	idx := FleetIndex(fleet)
	if len(idx) != 3 {
		t.Fatalf("index size %d", len(idx))
	}
	if idx[netaddr.MustParseAddr("203.0.0.1")] != "fe-x-001" {
		t.Fatalf("index = %v", idx)
	}
}
