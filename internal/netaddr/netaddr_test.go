package netaddr

import (
	"testing"
	"testing/quick"
)

func TestParseAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.1.2.3", "192.168.255.1", "255.255.255.255", "128.9.0.1"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrRejectsGarbage(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d", "01.2.3.4", "1..2.3"}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestQuickAddrStringParse(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := ParseAddr(a.String())
		return err == nil && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBasics(t *testing.T) {
	a := MustParseAddr("10.20.30.40")
	b := a.Block()
	if b.First() != MustParseAddr("10.20.30.0") {
		t.Errorf("First = %v", b.First())
	}
	if b.Host(7) != MustParseAddr("10.20.30.7") {
		t.Errorf("Host(7) = %v", b.Host(7))
	}
	if b.String() != "10.20.30.0/24" {
		t.Errorf("String = %q", b.String())
	}
}

func TestIsPrivate(t *testing.T) {
	private := []string{"10.0.0.1", "10.255.255.255", "172.16.0.1", "172.31.9.9", "192.168.1.1"}
	public := []string{"9.255.255.255", "11.0.0.0", "172.15.255.255", "172.32.0.0", "192.167.1.1", "192.169.0.0", "8.8.8.8"}
	for _, s := range private {
		if !MustParseAddr(s).IsPrivate() {
			t.Errorf("%s should be private", s)
		}
	}
	for _, s := range public {
		if MustParseAddr(s).IsPrivate() {
			t.Errorf("%s should be public", s)
		}
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.1.2.3/16")
	if p.String() != "10.1.0.0/16" {
		t.Errorf("masked prefix = %q, want 10.1.0.0/16", p.String())
	}
	if !p.Contains(MustParseAddr("10.1.255.255")) {
		t.Error("Contains failed inside prefix")
	}
	if p.Contains(MustParseAddr("10.2.0.0")) {
		t.Error("Contains succeeded outside prefix")
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "bogus/8", "10.0.0.0/x"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded", s)
		}
	}
}

func TestPrefixZeroBits(t *testing.T) {
	p := MustParsePrefix("0.0.0.0/0")
	if !p.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("/0 must contain everything")
	}
}

func TestContainsBlock(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.ContainsBlock(MustParseAddr("10.1.200.0").Block()) {
		t.Error("block inside /16 not contained")
	}
	if p.ContainsBlock(MustParseAddr("10.2.0.0").Block()) {
		t.Error("block outside /16 contained")
	}
	p30 := MustParsePrefix("10.1.0.0/30")
	if p30.ContainsBlock(MustParseAddr("10.1.0.0").Block()) {
		t.Error("/30 cannot contain a whole /24")
	}
}

func TestNumBlocksAndBlocks(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/22")
	if p.NumBlocks() != 4 {
		t.Fatalf("NumBlocks(/22) = %d, want 4", p.NumBlocks())
	}
	bs := p.Blocks()
	if len(bs) != 4 {
		t.Fatalf("Blocks length %d", len(bs))
	}
	if bs[0].String() != "10.1.0.0/24" || bs[3].String() != "10.1.3.0/24" {
		t.Errorf("Blocks = %v ... %v", bs[0], bs[3])
	}
	if MustParsePrefix("10.0.0.0/25").NumBlocks() != 0 {
		t.Error("/25 should report zero whole blocks")
	}
}

func TestPrefixCompare(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.0.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("shorter prefix should sort first at equal address")
	}
	if a.Compare(c) >= 0 || a.Compare(a) != 0 {
		t.Error("address ordering broken")
	}
}

func TestQuickPrefixContainsItsBlocks(t *testing.T) {
	f := func(v uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw%9) + 16 // /16../24
		p := Prefix{Addr: Addr(v), Bits: bits}.Masked()
		for _, b := range p.Blocks() {
			if !p.ContainsBlock(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
