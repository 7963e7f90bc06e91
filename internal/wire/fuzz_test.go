package wire

// Native fuzz targets for every parser that consumes untrusted bytes.
// `go test` runs the seed corpus on every CI pass; `go test -fuzz=Fuzz...`
// explores further. The invariant under fuzzing is uniform: parsers must
// return an error or a well-formed structure — never panic, never hang —
// and successful parses must re-marshal to something the parser accepts
// again.

import "testing"

func FuzzUnmarshalIPv4(f *testing.F) {
	h := &IPv4Header{TotalLen: IPv4HeaderLen + 4, TTL: 64, Protocol: ProtoICMP, Src: 1, Dst: 2}
	f.Add(append(h.Marshal(), 1, 2, 3, 4))
	f.Add([]byte{})
	f.Add(make([]byte, IPv4HeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, payload, err := UnmarshalIPv4(data)
		if err != nil {
			return
		}
		if hdr == nil {
			t.Fatal("nil header without error")
		}
		if len(payload) > len(data) {
			t.Fatal("payload longer than input")
		}
	})
}

func FuzzUnmarshalICMP(f *testing.F) {
	f.Add(NewEchoRequest(1, 2, []byte("x")).Marshal())
	f.Add(TimeExceededFor(make([]byte, 28)).Marshal())
	f.Add([]byte{8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalICMP(data)
		if err != nil {
			return
		}
		// Round trip: a parsed message re-marshals and re-parses.
		if _, err := UnmarshalICMP(m.Marshal()); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}

func FuzzUnmarshalDNS(f *testing.F) {
	q := &DNSMessage{ID: 1, Questions: []Question{{Name: "www.example.com", Type: TypeA, Class: ClassIN}}}
	buf, _ := q.Marshal()
	f.Add(buf)
	ecs := &DNSMessage{ID: 2,
		Questions:  []Question{{Name: "a.b", Type: TypeA, Class: ClassIN}},
		Additional: []RR{OPTRecord(4096, ClientSubnet{Addr: 1 << 24, SourcePrefixLen: 24}.Option())}}
	buf2, _ := ecs.Marshal()
	f.Add(buf2)
	f.Add([]byte{0xc0, 0x0c})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalDNS(data)
		if err != nil {
			return
		}
		out, err := m.Marshal()
		if err != nil {
			// Parsed names can exceed marshal limits (compression bombs
			// expand); an error is acceptable, a panic is not.
			return
		}
		if _, err := UnmarshalDNS(out); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}

func FuzzUnmarshalBGP(f *testing.F) {
	f.Add(MarshalKeepalive())
	f.Add(MarshalOpen(&BGPOpenMsg{ASN: 65000, HoldTime: 90, BGPID: 7}))
	u, _ := MarshalUpdate(&BGPUpdateMsg{
		Origin: OriginIGP, ASPath: []uint32{1, 2}, NextHop: 3,
		Announce: []BGPPrefix{{Addr: 0x0a000000, Bits: 8}},
	})
	f.Add(u)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := UnmarshalBGP(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if m == nil {
			t.Fatal("nil message without error")
		}
	})
}
