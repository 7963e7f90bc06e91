// Package snapshot is Fenrir's checkpoint codec: a versioned,
// deterministic on-disk format for streaming Monitor state, so a long-running daemon can checkpoint periodically
// and warm-restart into exactly the state an uninterrupted run would
// hold — the same save/resume discipline a training job applies to
// model weights, applied to the triangular Φ history.
//
// Format (all integers little-endian):
//
//	magic   "FENRSNP1" (8 bytes)
//	version uint16     (3 is written; readers accept 2 and 3)
//	kind    uint8      (2 = monitor; 1, a bare series, is retired)
//	frames  …          one per section, in a fixed order
//
// Monitor snapshots end with a "window" frame: the sliding-window bound
// and the eviction count. Nothing of the live mode engine is persisted:
// a restored monitor re-clusters on its first mode query, as it does
// after any append. Version 2 differs only in that frame, which went on
// with the engine's sweep configuration and, optionally, its dendrogram;
// readers check that tail's shape and discard it. Version-1 files, which
// predate the window frame, are rejected with *UnsupportedVersionError.
//
// Each frame is `len uint32 | payload | crc uint32` where crc is the
// IEEE CRC-32 of the payload, so truncation and corruption are caught
// frame by frame instead of surfacing as garbled state. Encoding is
// fully deterministic — no maps are walked, no timestamps are stamped —
// so encoding the same state twice yields identical bytes, which is
// what lets a kill-and-restore daemon run prove itself byte-identical
// to an uninterrupted one.
//
// Versioning rule: readers accept exactly the versions they know;
// an unknown version returns *UnsupportedVersionError rather than a
// guess. Any change to section contents or order bumps Version.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Version is the current snapshot format version; MinVersion is the
// oldest version readers still accept.
const (
	Version    = 3
	MinVersion = 2
)

var magic = [8]byte{'F', 'E', 'N', 'R', 'S', 'N', 'P', '1'}

// kindMonitor is the header's kind byte for a monitor snapshot.
const kindMonitor = 2

// ErrBadMagic reports a file that is not a Fenrir snapshot at all.
var ErrBadMagic = errors.New("snapshot: bad magic (not a fenrir snapshot)")

// UnsupportedVersionError reports a snapshot written by a format version
// this reader does not understand.
type UnsupportedVersionError struct {
	Version uint16
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported format version %d (reader supports %d–%d)", e.Version, MinVersion, Version)
}

// CorruptError reports a snapshot whose framing or contents failed
// validation: a CRC mismatch, a truncated frame, or a section that
// decodes to an impossible value.
type CorruptError struct {
	Section string
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt %s section: %s", e.Section, e.Reason)
}

// corrupt builds a *CorruptError.
func corrupt(section, format string, args ...any) error {
	return &CorruptError{Section: section, Reason: fmt.Sprintf(format, args...)}
}

// maxFrameLen bounds a single frame so a corrupted length prefix cannot
// drive a multi-gigabyte allocation before the CRC check runs.
const maxFrameLen = 1 << 30

// frameChunk is the largest allocation readFrame makes before the bytes
// behind a frame's length prefix have arrived. Frames up to this size —
// every monitor section up to a window of about 2000 epochs — are read
// with one exact allocation.
const frameChunk = 1 << 24

// writeBufSize is the size of the one buffer a snapshot is written
// through. Frames of any length pass through it a piece at a time, so
// encoding allocates this buffer and nothing that grows with the state.
const writeBufSize = 32 << 10

// frameWriter streams a snapshot through one fixed buffer. Each frame's
// length is declared before its payload (begin), so no payload is built
// whole; the CRC is folded in as the bytes leave the buffer, and end
// appends it. The first error from the underlying writer sticks: nothing
// is written after it, and close returns it.
type frameWriter struct {
	w   io.Writer
	buf []byte // pending bytes, cap(buf) == writeBufSize
	sum int    // buf[sum:] is open-frame payload not yet in crc
	crc uint32
	n   int // bytes the underlying writer accepted
	err error
}

// newFrameWriter starts a snapshot of the given kind on w: magic,
// version and kind are the buffer's first bytes.
func newFrameWriter(w io.Writer, kind uint8) *frameWriter {
	buf := make([]byte, 0, writeBufSize)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	return &frameWriter{w: w, buf: append(buf, kind)}
}

// flush hands the buffered bytes to w, folding the open frame's payload
// into its CRC first.
func (fw *frameWriter) flush() {
	if fw.err != nil {
		return
	}
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, fw.buf[fw.sum:])
	n, err := fw.w.Write(fw.buf)
	if err == nil && n < len(fw.buf) {
		err = io.ErrShortWrite
	}
	fw.n += n
	fw.buf, fw.sum, fw.err = fw.buf[:0], 0, err
}

// room reports whether size more bytes fit in the buffer, flushing it
// when they do not; false once a write has failed.
func (fw *frameWriter) room(size int) bool {
	if cap(fw.buf)-len(fw.buf) < size {
		fw.flush()
	}
	return fw.err == nil
}

// begin opens a frame of size payload bytes: its length prefix goes
// out, and its CRC starts over. The payload written before end must be
// exactly size bytes.
func (fw *frameWriter) begin(size int) {
	fw.u32(uint32(size))
	fw.crc, fw.sum = 0, len(fw.buf)
}

// end closes the open frame with its CRC.
func (fw *frameWriter) end() {
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, fw.buf[fw.sum:])
	fw.sum = len(fw.buf)
	fw.u32(fw.crc)
}

// close flushes the buffer and returns the bytes written and the first
// error.
func (fw *frameWriter) close() (int, error) {
	fw.flush()
	return fw.n, fw.err
}

func (fw *frameWriter) u8(v uint8) {
	if fw.room(1) {
		fw.buf = append(fw.buf, v)
	}
}

func (fw *frameWriter) u32(v uint32) {
	if fw.room(4) {
		fw.buf = binary.LittleEndian.AppendUint32(fw.buf, v)
	}
}

func (fw *frameWriter) u64(v uint64) {
	if fw.room(8) {
		fw.buf = binary.LittleEndian.AppendUint64(fw.buf, v)
	}
}

func (fw *frameWriter) i64(v int64)   { fw.u64(uint64(v)) }
func (fw *frameWriter) f64(v float64) { fw.u64(math.Float64bits(v)) }

// str writes a length-prefixed string, as much of it per pass as the
// buffer holds.
func (fw *frameWriter) str(s string) {
	fw.u32(uint32(len(s)))
	for len(s) > 0 && fw.room(1) {
		k := copy(fw.buf[len(fw.buf):cap(fw.buf)], s)
		fw.buf, s = fw.buf[:len(fw.buf)+k], s[k:]
	}
}

// f64s writes a row of float64 values bit for bit, as many per pass as
// the buffer holds.
func (fw *frameWriter) f64s(row []float64) {
	for len(row) > 0 && fw.room(8) {
		k := min(len(row), (cap(fw.buf)-len(fw.buf))/8)
		for _, v := range row[:k] {
			fw.buf = binary.LittleEndian.AppendUint64(fw.buf, math.Float64bits(v))
		}
		row = row[k:]
	}
}

// readHeader validates magic and version and returns the kind and the
// version.
func readHeader(r io.Reader) (kind uint8, version uint16, err error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return 0, 0, ErrBadMagic
	}
	if m != magic {
		return 0, 0, ErrBadMagic
	}
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, corrupt("header", "truncated after magic")
	}
	version = binary.LittleEndian.Uint16(hdr[:2])
	if version < MinVersion || version > Version {
		return 0, 0, &UnsupportedVersionError{Version: version}
	}
	return hdr[2], version, nil
}

// readFrame reads one frame, verifying its CRC. section names the frame
// in error messages.
func readFrame(r io.Reader, section string) ([]byte, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, corrupt(section, "truncated frame length")
	}
	n := int(binary.LittleEndian.Uint32(pre[:]))
	if n > maxFrameLen {
		return nil, corrupt(section, "frame length %d exceeds limit", n)
	}
	// Allocate at most frameChunk up front and double as bytes arrive,
	// so a corrupted length prefix costs one chunk, not maxFrameLen.
	payload := make([]byte, 0, min(n, frameChunk))
	for len(payload) < n {
		k := min(n-len(payload), max(len(payload), frameChunk))
		payload = slices.Grow(payload, k)[:len(payload)+k]
		if _, err := io.ReadFull(r, payload[len(payload)-k:]); err != nil {
			return nil, corrupt(section, "truncated payload (want %d bytes)", n)
		}
	}
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, corrupt(section, "truncated checksum")
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(pre[:]); got != want {
		return nil, corrupt(section, "crc mismatch (got %08x want %08x)", got, want)
	}
	return payload, nil
}

// dec is a little-endian payload reader; it fails loudly on truncation via
// the ok flag so callers convert to CorruptError with section context.
type dec struct {
	buf []byte
	off int
	bad bool
}

func (d *dec) take(n int) []byte {
	if d.bad || d.off+n > len(d.buf) {
		d.bad = true
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads a u32 element count for elements of at least size bytes
// each. A count the unread payload cannot hold marks the decoder bad
// and returns 0, so a crafted count fails before it sizes an allocation.
func (d *dec) count(size int) int {
	n := int(d.u32())
	if !d.fit(n, size) {
		return 0
	}
	return n
}

// fit reports whether n elements of size bytes each fit in the unread
// payload, marking the decoder bad when they do not.
func (d *dec) fit(n, size int) bool {
	if d.bad || n < 0 || n > (len(d.buf)-d.off)/size {
		d.bad = true
		return false
	}
	return true
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) str() string {
	n := int(d.u32())
	if d.bad || n > len(d.buf)-d.off {
		d.bad = true
		return ""
	}
	return string(d.take(n))
}

// done returns an error unless the payload was consumed exactly.
func (d *dec) done(section string) error {
	if d.bad {
		return corrupt(section, "truncated payload")
	}
	if d.off != len(d.buf) {
		return corrupt(section, "%d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}
