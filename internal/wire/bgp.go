package wire

import (
	"encoding/binary"
	"fmt"
)

// BGP-4 message formats (RFC 4271) with 4-octet AS support (RFC 6793).
// The route-collector substrate (internal/measure/bgpfeed) exports the
// simulator's RIBs as real UPDATE messages and parses them back, the same
// contract RouteViews/RIPE RIS consumers rely on: if our encoding were
// wrong, the collector could not read its own feed.

// BGP message types.
const (
	BGPOpen         = 1
	BGPUpdate       = 2
	BGPNotification = 3
	BGPKeepalive    = 4
)

// BGP path attribute type codes.
const (
	AttrOrigin  = 1
	AttrASPath  = 2
	AttrNextHop = 3
	AttrMED     = 4
	AttrLocPref = 5
)

// Origin attribute values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	ASSet      = 1
	ASSequence = 2
)

// bgpMarkerLen and the all-ones marker per RFC 4271.
const bgpMarkerLen = 16

// bgpHeaderLen is marker + length + type.
const bgpHeaderLen = bgpMarkerLen + 3

// BGPMaxMessageLen caps message size per RFC 4271.
const BGPMaxMessageLen = 4096

// BGPMessage is a parsed BGP message; exactly one of the payload fields is
// meaningful depending on Type.
type BGPMessage struct {
	Type   uint8
	Open   *BGPOpenMsg
	Update *BGPUpdateMsg
	// Notification code/subcode (Type == BGPNotification).
	NotifCode, NotifSubcode uint8
}

// BGPOpenMsg is the OPEN payload (version 4, 2-octet AS field carries
// AS_TRANS for 4-octet speakers; we keep the real ASN in the capability).
type BGPOpenMsg struct {
	ASN      uint32
	HoldTime uint16
	BGPID    uint32
}

// BGPUpdateMsg is the UPDATE payload.
type BGPUpdateMsg struct {
	Withdrawn []BGPPrefix
	// Path attributes.
	Origin   uint8
	ASPath   []uint32 // AS_SEQUENCE, origin last
	NextHop  uint32
	MED      uint32
	LocPref  uint32
	HasMED   bool
	HasLP    bool
	Announce []BGPPrefix
}

// BGPPrefix is an NLRI entry.
type BGPPrefix struct {
	Addr Addr
	Bits uint8
}

func marshalHeader(msgType uint8, payload []byte) []byte {
	total := bgpHeaderLen + len(payload)
	b := make([]byte, total)
	for i := 0; i < bgpMarkerLen; i++ {
		b[i] = 0xff
	}
	binary.BigEndian.PutUint16(b[16:], uint16(total))
	b[18] = msgType
	copy(b[19:], payload)
	return b
}

// MarshalOpen renders an OPEN message. 4-octet ASNs are carried in the
// capabilities option (code 65) with AS_TRANS (23456) in the fixed field,
// per RFC 6793.
func MarshalOpen(m *BGPOpenMsg) []byte {
	const asTrans = 23456
	cap4 := []byte{65, 4, 0, 0, 0, 0} // capability 65, length 4
	binary.BigEndian.PutUint32(cap4[2:], m.ASN)
	opt := append([]byte{2, byte(len(cap4))}, cap4...) // param type 2: capabilities

	fixedAS := m.ASN
	if fixedAS > 0xffff {
		fixedAS = asTrans
	}
	p := make([]byte, 10, 10+len(opt))
	p[0] = 4 // version
	binary.BigEndian.PutUint16(p[1:], uint16(fixedAS))
	binary.BigEndian.PutUint16(p[3:], m.HoldTime)
	binary.BigEndian.PutUint32(p[5:], m.BGPID)
	p[9] = byte(len(opt))
	p = append(p, opt...)
	return marshalHeader(BGPOpen, p)
}

// MarshalKeepalive renders a KEEPALIVE.
func MarshalKeepalive() []byte { return marshalHeader(BGPKeepalive, nil) }

// MarshalNotification renders a NOTIFICATION.
func MarshalNotification(code, subcode uint8) []byte {
	return marshalHeader(BGPNotification, []byte{code, subcode})
}

// marshalPathAttrs renders the path attributes of u (ORIGIN, AS_PATH,
// NEXT_HOP, optional MED/LOCAL_PREF) in canonical order.
func marshalPathAttrs(u *BGPUpdateMsg) ([]byte, error) {
	var attrs []byte
	appendAttr := func(flags, code uint8, val []byte) {
		attrs = append(attrs, flags, code, byte(len(val)))
		attrs = append(attrs, val...)
	}
	appendAttr(0x40, AttrOrigin, []byte{u.Origin})
	// AS_PATH: one AS_SEQUENCE segment of 4-octet ASNs.
	if len(u.ASPath) > 255 {
		return nil, fmt.Errorf("wire: AS path too long (%d)", len(u.ASPath))
	}
	seg := make([]byte, 2+4*len(u.ASPath))
	seg[0] = ASSequence
	seg[1] = byte(len(u.ASPath))
	for i, as := range u.ASPath {
		binary.BigEndian.PutUint32(seg[2+4*i:], as)
	}
	appendAttr(0x40, AttrASPath, seg)
	nh := make([]byte, 4)
	binary.BigEndian.PutUint32(nh, u.NextHop)
	appendAttr(0x40, AttrNextHop, nh)
	if u.HasMED {
		v := make([]byte, 4)
		binary.BigEndian.PutUint32(v, u.MED)
		appendAttr(0x80, AttrMED, v)
	}
	if u.HasLP {
		v := make([]byte, 4)
		binary.BigEndian.PutUint32(v, u.LocPref)
		appendAttr(0x40, AttrLocPref, v)
	}
	return attrs, nil
}

// MarshalUpdate renders an UPDATE with 4-octet AS_PATH encoding.
func MarshalUpdate(u *BGPUpdateMsg) ([]byte, error) {
	withdrawn, err := marshalNLRI(u.Withdrawn)
	if err != nil {
		return nil, err
	}

	var attrs []byte
	if len(u.Announce) > 0 {
		if attrs, err = marshalPathAttrs(u); err != nil {
			return nil, err
		}
	}

	nlri, err := marshalNLRI(u.Announce)
	if err != nil {
		return nil, err
	}

	p := make([]byte, 0, 4+len(withdrawn)+len(attrs)+len(nlri))
	p = appendU16(p, uint16(len(withdrawn)))
	p = append(p, withdrawn...)
	p = appendU16(p, uint16(len(attrs)))
	p = append(p, attrs...)
	p = append(p, nlri...)
	msg := marshalHeader(BGPUpdate, p)
	if len(msg) > BGPMaxMessageLen {
		return nil, fmt.Errorf("wire: UPDATE exceeds %d bytes", BGPMaxMessageLen)
	}
	return msg, nil
}

func marshalNLRI(ps []BGPPrefix) ([]byte, error) {
	var out []byte
	for _, p := range ps {
		if p.Bits > 32 {
			return nil, fmt.Errorf("wire: prefix length %d invalid", p.Bits)
		}
		nbytes := (int(p.Bits) + 7) / 8
		out = append(out, p.Bits)
		addr := make([]byte, 4)
		binary.BigEndian.PutUint32(addr, p.Addr)
		out = append(out, addr[:nbytes]...)
	}
	return out, nil
}

func parseNLRI(b []byte) ([]BGPPrefix, error) {
	var out []BGPPrefix
	for i := 0; i < len(b); {
		bits := b[i]
		if bits > 32 {
			return nil, fmt.Errorf("wire: NLRI prefix length %d", bits)
		}
		nbytes := (int(bits) + 7) / 8
		if i+1+nbytes > len(b) {
			return nil, fmt.Errorf("wire: NLRI truncated")
		}
		addr := make([]byte, 4)
		copy(addr, b[i+1:i+1+nbytes])
		out = append(out, BGPPrefix{Addr: binary.BigEndian.Uint32(addr), Bits: bits})
		i += 1 + nbytes
	}
	return out, nil
}

// UnmarshalBGP parses one BGP message from b, returning the message and
// the number of bytes consumed (messages arrive back-to-back on a TCP
// stream; callers loop).
func UnmarshalBGP(b []byte) (*BGPMessage, int, error) {
	if len(b) < bgpHeaderLen {
		return nil, 0, fmt.Errorf("wire: BGP header truncated")
	}
	for i := 0; i < bgpMarkerLen; i++ {
		if b[i] != 0xff {
			return nil, 0, fmt.Errorf("wire: BGP marker corrupt")
		}
	}
	total := int(binary.BigEndian.Uint16(b[16:]))
	if total < bgpHeaderLen || total > BGPMaxMessageLen {
		return nil, 0, fmt.Errorf("wire: BGP length %d out of range", total)
	}
	if len(b) < total {
		return nil, 0, fmt.Errorf("wire: BGP message truncated (%d < %d)", len(b), total)
	}
	m := &BGPMessage{Type: b[18]}
	payload := b[bgpHeaderLen:total]
	switch m.Type {
	case BGPOpen:
		o, err := parseOpen(payload)
		if err != nil {
			return nil, 0, err
		}
		m.Open = o
	case BGPUpdate:
		u, err := parseUpdate(payload)
		if err != nil {
			return nil, 0, err
		}
		m.Update = u
	case BGPNotification:
		if len(payload) < 2 {
			return nil, 0, fmt.Errorf("wire: NOTIFICATION truncated")
		}
		m.NotifCode, m.NotifSubcode = payload[0], payload[1]
	case BGPKeepalive:
		if len(payload) != 0 {
			return nil, 0, fmt.Errorf("wire: KEEPALIVE with payload")
		}
	default:
		return nil, 0, fmt.Errorf("wire: unknown BGP type %d", m.Type)
	}
	return m, total, nil
}

func parseOpen(p []byte) (*BGPOpenMsg, error) {
	if len(p) < 10 {
		return nil, fmt.Errorf("wire: OPEN truncated")
	}
	if p[0] != 4 {
		return nil, fmt.Errorf("wire: BGP version %d", p[0])
	}
	o := &BGPOpenMsg{
		ASN:      uint32(binary.BigEndian.Uint16(p[1:])),
		HoldTime: binary.BigEndian.Uint16(p[3:]),
		BGPID:    binary.BigEndian.Uint32(p[5:]),
	}
	optLen := int(p[9])
	if 10+optLen > len(p) {
		return nil, fmt.Errorf("wire: OPEN options truncated")
	}
	opts := p[10 : 10+optLen]
	for i := 0; i+2 <= len(opts); {
		ptype, plen := opts[i], int(opts[i+1])
		if i+2+plen > len(opts) {
			return nil, fmt.Errorf("wire: OPEN parameter truncated")
		}
		if ptype == 2 { // capabilities
			caps := opts[i+2 : i+2+plen]
			for j := 0; j+2 <= len(caps); {
				code, clen := caps[j], int(caps[j+1])
				if j+2+clen > len(caps) {
					return nil, fmt.Errorf("wire: capability truncated")
				}
				if code == 65 && clen == 4 { // 4-octet AS
					o.ASN = binary.BigEndian.Uint32(caps[j+2:])
				}
				j += 2 + clen
			}
		}
		i += 2 + plen
	}
	return o, nil
}

func parseUpdate(p []byte) (*BGPUpdateMsg, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("wire: UPDATE truncated")
	}
	u := &BGPUpdateMsg{}
	wlen := int(binary.BigEndian.Uint16(p[0:]))
	if 2+wlen+2 > len(p) {
		return nil, fmt.Errorf("wire: UPDATE withdrawn overruns")
	}
	var err error
	if u.Withdrawn, err = parseNLRI(p[2 : 2+wlen]); err != nil {
		return nil, err
	}
	alen := int(binary.BigEndian.Uint16(p[2+wlen:]))
	attrStart := 4 + wlen
	if attrStart+alen > len(p) {
		return nil, fmt.Errorf("wire: UPDATE attributes overrun")
	}
	if err := parsePathAttrs(p[attrStart:attrStart+alen], u); err != nil {
		return nil, err
	}
	if u.Announce, err = parseNLRI(p[attrStart+alen:]); err != nil {
		return nil, err
	}
	return u, nil
}

// parsePathAttrs decodes path attributes into u.
func parsePathAttrs(attrs []byte, u *BGPUpdateMsg) error {
	for i := 0; i < len(attrs); {
		if i+2 > len(attrs) {
			return fmt.Errorf("wire: attribute header truncated")
		}
		flags, code := attrs[i], attrs[i+1]
		var vlen, hdr int
		if flags&0x10 != 0 { // extended length
			if i+4 > len(attrs) {
				return fmt.Errorf("wire: extended attribute truncated")
			}
			vlen = int(binary.BigEndian.Uint16(attrs[i+2:]))
			hdr = 4
		} else {
			if i+3 > len(attrs) {
				return fmt.Errorf("wire: attribute truncated")
			}
			vlen = int(attrs[i+2])
			hdr = 3
		}
		if i+hdr+vlen > len(attrs) {
			return fmt.Errorf("wire: attribute value truncated")
		}
		val := attrs[i+hdr : i+hdr+vlen]
		switch code {
		case AttrOrigin:
			if vlen != 1 {
				return fmt.Errorf("wire: ORIGIN length %d", vlen)
			}
			u.Origin = val[0]
		case AttrASPath:
			for j := 0; j < len(val); {
				if j+2 > len(val) {
					return fmt.Errorf("wire: AS_PATH segment truncated")
				}
				segType, n := val[j], int(val[j+1])
				if j+2+4*n > len(val) {
					return fmt.Errorf("wire: AS_PATH ASNs truncated")
				}
				if segType != ASSequence && segType != ASSet {
					return fmt.Errorf("wire: AS_PATH segment type %d", segType)
				}
				for k := 0; k < n; k++ {
					u.ASPath = append(u.ASPath, binary.BigEndian.Uint32(val[j+2+4*k:]))
				}
				j += 2 + 4*n
			}
		case AttrNextHop:
			if vlen != 4 {
				return fmt.Errorf("wire: NEXT_HOP length %d", vlen)
			}
			u.NextHop = binary.BigEndian.Uint32(val)
		case AttrMED:
			if vlen != 4 {
				return fmt.Errorf("wire: MED length %d", vlen)
			}
			u.MED = binary.BigEndian.Uint32(val)
			u.HasMED = true
		case AttrLocPref:
			if vlen != 4 {
				return fmt.Errorf("wire: LOCAL_PREF length %d", vlen)
			}
			u.LocPref = binary.BigEndian.Uint32(val)
			u.HasLP = true
		}
		i += hdr + vlen
	}
	return nil
}
