// Package netaddr provides the IPv4 address arithmetic the measurement
// substrates are built on: addresses, CIDR prefixes, /24 blocks (the unit
// of measurement in Verfploeter, the USC hitlist, and the ECS sweeps), and
// a longest-prefix-match trie used by the BGP simulator's FIBs.
//
// We deliberately implement a compact uint32-based representation rather
// than using net.IP everywhere: the simulator routinely holds millions of
// block→catchment associations, and a 4-byte value key keeps those maps and
// slices dense.
package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// MustParseAddr parses dotted-quad text and panics on error. It is meant
// for tests and static tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netaddr: %q is not a dotted quad", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("netaddr: bad octet %q in %q", p, s)
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), nil
}

// String renders the address as a dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Block returns the /24 block containing a.
func (a Addr) Block() Block { return Block(a >> 8) }

// IsPrivate reports whether a falls in RFC 1918 space. Traceroute hops with
// private addresses are treated as unidentifiable by the cleaners, exactly
// as the paper describes for intermediate hops.
func (a Addr) IsPrivate() bool {
	switch {
	case a>>24 == 10: // 10.0.0.0/8
		return true
	case a>>20 == 0xAC1: // 172.16.0.0/12
		return true
	case a>>16 == 0xC0A8: // 192.168.0.0/16
		return true
	}
	return false
}

// Block is an IPv4 /24 block, identified by its top 24 bits.
type Block uint32

// First returns the .0 address of the block.
func (b Block) First() Addr { return Addr(b) << 8 }

// Host returns the address with the given final octet inside the block.
func (b Block) Host(last byte) Addr { return Addr(b)<<8 | Addr(last) }

// Prefix returns the /24 CIDR prefix covering the block.
func (b Block) Prefix() Prefix { return Prefix{Addr: b.First(), Bits: 24} }

// String renders the block as its /24 prefix.
func (b Block) String() string { return b.Prefix().String() }

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr Addr
	Bits int
}

// MustParsePrefix parses CIDR text and panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "a.b.c.d/len" CIDR text. The address is masked down
// to its network address.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netaddr: %q has no /length", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netaddr: bad prefix length in %q", s)
	}
	p := Prefix{Addr: addr, Bits: bits}
	return p.Masked(), nil
}

// Masked returns the prefix with host bits cleared.
func (p Prefix) Masked() Prefix {
	return Prefix{Addr: p.Addr & p.mask(), Bits: p.Bits}
}

func (p Prefix) mask() Addr {
	if p.Bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Contains reports whether a is inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return a&p.mask() == p.Addr&p.mask()
}

// ContainsBlock reports whether the whole /24 block is inside the prefix.
func (p Prefix) ContainsBlock(b Block) bool {
	if p.Bits > 24 {
		return false
	}
	return p.Contains(b.First())
}

// NumBlocks returns how many /24 blocks the prefix spans (0 if longer
// than /24).
func (p Prefix) NumBlocks() int {
	if p.Bits > 24 {
		return 0
	}
	return 1 << (24 - p.Bits)
}

// Blocks returns every /24 block inside the prefix, in address order.
// Callers should check NumBlocks first for very short prefixes.
func (p Prefix) Blocks() []Block {
	n := p.NumBlocks()
	if n == 0 {
		return nil
	}
	out := make([]Block, n)
	first := Block(p.Addr >> 8)
	for i := range out {
		out[i] = first + Block(i)
	}
	return out
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.Addr.String() + "/" + strconv.Itoa(p.Bits)
}

// Compare orders prefixes by address, then by length (shorter first).
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Addr < q.Addr:
		return -1
	case p.Addr > q.Addr:
		return 1
	case p.Bits < q.Bits:
		return -1
	case p.Bits > q.Bits:
		return 1
	}
	return 0
}
