// Package wire implements the on-the-wire packet formats the measurement
// substrates exchange: IPv4, ICMP, UDP, and DNS with the EDNS0 options the
// paper's methods depend on (NSID for anycast site identification, Client
// Subnet for website catchment mapping).
//
// The design follows the layered-decoding idiom of gopacket: each layer
// type knows how to marshal itself and how to decode from bytes, and a
// top-level Packet composes layers. Everything is implemented from scratch
// on the stdlib (encoding/binary); the probers build real byte buffers and
// the simulated forwarding plane parses them back, so format bugs fail
// tests rather than hiding behind shared structs.
package wire

import (
	"encoding/binary"
	"fmt"
)

// IP protocol numbers used by the simulator.
const (
	ProtoICMP = 1
	ProtoUDP  = 17
)

// IPv4HeaderLen is the length of a header without options; the simulator
// never emits options.
const IPv4HeaderLen = 20

// IPv4Header is an IPv4 packet header (no options).
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst Addr
}

// Addr is re-exported from netaddr to keep wire self-describing in its
// function signatures without import cycles upward.
type Addr = uint32

// Marshal renders the header. TotalLen must already include payload
// length; Checksum is computed here and written back into the struct.
func (h *IPv4Header) Marshal() []byte {
	b := make([]byte, IPv4HeaderLen)
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Protocol
	// checksum at [10:12] is zero during computation
	binary.BigEndian.PutUint32(b[12:], h.Src)
	binary.BigEndian.PutUint32(b[16:], h.Dst)
	h.Checksum = Checksum(b)
	binary.BigEndian.PutUint16(b[10:], h.Checksum)
	return b
}

// UnmarshalIPv4 parses and validates an IPv4 header, returning the header
// and the payload bytes.
func UnmarshalIPv4(b []byte) (*IPv4Header, []byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, nil, fmt.Errorf("wire: IPv4 header truncated (%d bytes)", len(b))
	}
	if b[0]>>4 != 4 {
		return nil, nil, fmt.Errorf("wire: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return nil, nil, fmt.Errorf("wire: bad IHL %d", ihl)
	}
	h := &IPv4Header{
		TOS:      b[1],
		TotalLen: binary.BigEndian.Uint16(b[2:]),
		ID:       binary.BigEndian.Uint16(b[4:]),
		Flags:    uint8(binary.BigEndian.Uint16(b[6:]) >> 13),
		FragOff:  binary.BigEndian.Uint16(b[6:]) & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Checksum: binary.BigEndian.Uint16(b[10:]),
		Src:      binary.BigEndian.Uint32(b[12:]),
		Dst:      binary.BigEndian.Uint32(b[16:]),
	}
	if int(h.TotalLen) > len(b) {
		return nil, nil, fmt.Errorf("wire: total length %d exceeds buffer %d", h.TotalLen, len(b))
	}
	if int(h.TotalLen) < ihl {
		return nil, nil, fmt.Errorf("wire: total length %d shorter than header %d", h.TotalLen, ihl)
	}
	// Verify header checksum: summing the header including the stored
	// checksum must give 0xffff-complement zero.
	if Checksum(b[:ihl]) != 0 {
		return nil, nil, fmt.Errorf("wire: IPv4 header checksum mismatch")
	}
	return h, b[ihl:h.TotalLen], nil
}

// Checksum computes the RFC 1071 Internet checksum over b. When b contains
// a zeroed checksum field the result is the value to store; when b
// contains a stored checksum the result is 0 for an intact buffer.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
