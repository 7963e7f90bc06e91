package netaddr

import (
	"testing"
	"testing/quick"
)

func TestTrieLongestPrefixMatch(t *testing.T) {
	tr := NewTrie[string]()
	tr.Insert(MustParsePrefix("0.0.0.0/0"), "default")
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "ten")
	tr.Insert(MustParsePrefix("10.1.0.0/16"), "ten-one")
	tr.Insert(MustParsePrefix("10.1.2.0/24"), "ten-one-two")

	cases := []struct {
		addr string
		want string
		bits int
	}{
		{"10.1.2.3", "ten-one-two", 24},
		{"10.1.9.9", "ten-one", 16},
		{"10.200.0.1", "ten", 8},
		{"192.0.2.1", "default", 0},
	}
	for _, c := range cases {
		v, p, ok := tr.Lookup(MustParseAddr(c.addr))
		if !ok || v != c.want || p.Bits != c.bits {
			t.Errorf("Lookup(%s) = %q /%d ok=%v, want %q /%d", c.addr, v, p.Bits, ok, c.want, c.bits)
		}
	}
}

func TestTrieLookupMissWithoutDefault(t *testing.T) {
	tr := NewTrie[int]()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	if _, _, ok := tr.Lookup(MustParseAddr("11.0.0.1")); ok {
		t.Fatal("lookup outside stored prefixes should miss")
	}
}

func TestTrieInsertReplaces(t *testing.T) {
	tr := NewTrie[int]()
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if v, ok := tr.Get(p); !ok || v != 2 {
		t.Fatalf("Get = %d ok=%v", v, ok)
	}
}

func TestTrieHostRoute(t *testing.T) {
	tr := NewTrie[string]()
	tr.Insert(MustParsePrefix("192.0.2.1/32"), "host")
	v, p, ok := tr.Lookup(MustParseAddr("192.0.2.1"))
	if !ok || v != "host" || p.Bits != 32 {
		t.Fatalf("host route lookup = %q /%d ok=%v", v, p.Bits, ok)
	}
	if _, _, ok := tr.Lookup(MustParseAddr("192.0.2.2")); ok {
		t.Fatal("adjacent address matched a /32")
	}
}

func TestTrieWalkOrderAndCompleteness(t *testing.T) {
	tr := NewTrie[int]()
	ps := []string{"10.0.0.0/8", "10.1.0.0/16", "9.0.0.0/8", "11.2.3.0/24", "0.0.0.0/0"}
	for i, s := range ps {
		tr.Insert(MustParsePrefix(s), i)
	}
	var got []Prefix
	tr.Walk(func(p Prefix, _ int) bool {
		got = append(got, p)
		return true
	})
	if len(got) != len(ps) {
		t.Fatalf("Walk visited %d prefixes, want %d", len(got), len(ps))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) > 0 {
			t.Fatalf("Walk out of order: %v before %v", got[i-1], got[i])
		}
	}
}

func TestTrieWalkEarlyStop(t *testing.T) {
	tr := NewTrie[int]()
	for i := 0; i < 10; i++ {
		tr.Insert(Prefix{Addr: Addr(i) << 24, Bits: 8}, i)
	}
	n := 0
	tr.Walk(func(Prefix, int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}

// Property: for random stored /k prefixes, Lookup of any address inside one
// returns a prefix that really contains the address.
func TestQuickTrieLookupConsistent(t *testing.T) {
	f := func(addrs []uint32) bool {
		tr := NewTrie[uint32]()
		for _, v := range addrs {
			p := Prefix{Addr: Addr(v), Bits: 8 + int(v%17)}.Masked()
			tr.Insert(p, v)
		}
		for _, v := range addrs {
			a := Addr(v)
			if _, p, ok := tr.Lookup(a); ok && !p.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	tr := NewTrie[int]()
	for i := 0; i < 100000; i++ {
		tr.Insert(Prefix{Addr: Addr(i * 2654435761), Bits: 8 + i%17}.Masked(), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(Addr(i * 40503))
	}
}
