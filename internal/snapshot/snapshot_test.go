package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

func nets(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
	}
	return out
}

func testSched(n int) timeline.Schedule {
	return timeline.NewSchedule(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC), time.Hour, n)
}

// fixture builds count observations (a mode flip halfway) in a fresh
// space. When inj is non-nil every site label passes through the fault
// model first, so a fixed fault seed produces a fixed mangled stream.
func fixture(seed uint64, count int, inj *faults.Injector) (*core.Space, []*core.Vector) {
	r := rng.New(seed)
	space := core.NewSpace(nets(120))
	var vs []*core.Vector
	for e := 0; e < count; e++ {
		v := space.NewVector(timeline.Epoch(e))
		base := "alpha"
		if e >= count/2 {
			base = "beta"
		}
		for i := 0; i < 120; i++ {
			if r.Bool(0.05) {
				continue
			}
			site := base
			if i%7 == 0 {
				site = "gamma"
			}
			v.Set(i, inj.SiteLabel("snapshot-test", site))
		}
		vs = append(vs, v)
	}
	return space, vs
}

func newMon(space *core.Space, count int) *core.Monitor {
	return core.NewMonitor(space, testSched(count), nil, core.PessimisticUnknown, core.DefaultDetectOptions())
}

// rebind copies vectors into another space by site label, the way a
// warm-restarted daemon re-parses incoming observations against its
// freshly decoded space (which may not yet intern labels that first
// appear after the checkpoint).
func rebind(space *core.Space, vs []*core.Vector) []*core.Vector {
	out := make([]*core.Vector, 0, len(vs))
	for _, v := range vs {
		nv := space.NewVector(v.T)
		for n := 0; n < space.NumNetworks(); n++ {
			if site, ok := v.Site(n); ok {
				nv.Set(n, site)
			}
		}
		out = append(out, nv)
	}
	return out
}

func appendAll(t *testing.T, mon *core.Monitor, vs []*core.Vector) {
	t.Helper()
	for _, v := range vs {
		if _, _, err := mon.Append(v); err != nil {
			t.Fatalf("append epoch %d: %v", v.T, err)
		}
	}
}

func sameMatrix(t *testing.T, a, b *core.SimMatrix) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("matrix sizes differ: %d vs %d", a.N, b.N)
	}
	for i := 0; i < a.N; i++ {
		if a.Epochs[i] != b.Epochs[i] {
			t.Fatalf("epoch row %d: %d vs %d", i, a.Epochs[i], b.Epochs[i])
		}
		for j := 0; j < a.N; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("cell (%d,%d): %v != %v (not bit-identical)", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// sameModes fails unless two mode results are identical: threshold and
// modes field for field, and their matrices by value (reflect.DeepEqual
// would tell a restored monitor's nil row 0 from an appended empty one).
func sameModes(t *testing.T, where string, a, b *core.ModesResult) {
	t.Helper()
	if a.Threshold != b.Threshold || !reflect.DeepEqual(a.Modes, b.Modes) {
		t.Fatalf("%s: modes diverged: %+v vs %+v", where, a, b)
	}
	sameMatrix(t, a.Matrix, b.Matrix)
}

// Property: save → load → continue appending produces the identical
// Snapshot() counters and heatmap matrix an uninterrupted run produces,
// for arbitrary seeds and split points.
func TestQuickMonitorRoundTripContinuation(t *testing.T) {
	f := func(seed uint64, splitRaw uint8) bool {
		const count = 30
		split := 1 + int(splitRaw)%(count-1)

		space, vs := fixture(seed, count, nil)
		monA := newMon(space, count)
		appendAll(t, monA, vs)

		monB := newMon(space, count)
		appendAll(t, monB, vs[:split])
		var buf bytes.Buffer
		if err := EncodeMonitor(&buf, monB.State()); err != nil {
			t.Fatalf("encode: %v", err)
		}
		st, err := DecodeMonitor(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		restored, err := core.RestoreMonitor(st)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		appendAll(t, restored, rebind(restored.Space(), vs[split:]))

		a, b := monA.Matrix(), restored.Matrix()
		if a.N != b.N {
			return false
		}
		for i := 0; i < a.N; i++ {
			for j := 0; j < a.N; j++ {
				if a.At(i, j) != b.At(i, j) {
					return false
				}
			}
		}
		sa, sb := monA.Snapshot(), restored.Snapshot()
		return sa.Appends == sb.Appends && sa.Events == sb.Events &&
			sa.History == sb.History && sa.LastEvent == sb.LastEvent && sa.HasEvent == sb.HasEvent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The same continuation guarantee must hold for observation streams
// mangled by a fixed-seed fault injector: the snapshot persists whatever
// (faulty) history was ingested, bit for bit.
func TestMonitorRoundTripUnderFaultSeed(t *testing.T) {
	prof, ok := faults.ByName("corrupt")
	if !ok {
		t.Fatal("corrupt profile missing")
	}
	inj := faults.New(prof, 7, nil)
	space, vs := fixture(99, 40, inj)
	monA := newMon(space, 40)
	appendAll(t, monA, vs)

	monB := newMon(space, 40) // fresh monitor; vs already carries the injected faults
	appendAll(t, monB, vs[:23])
	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, monB.State()); err != nil {
		t.Fatal(err)
	}
	st, err := DecodeMonitor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreMonitor(st)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, restored, rebind(restored.Space(), vs[23:]))
	sameMatrix(t, monA.Matrix(), restored.Matrix())
}

// Encoding is deterministic: the same state encodes to identical bytes.
func TestEncodeDeterministic(t *testing.T) {
	space, vs := fixture(3, 20, nil)
	mon := newMon(space, 20)
	appendAll(t, mon, vs)
	var b1, b2 bytes.Buffer
	if err := EncodeMonitor(&b1, mon.State()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeMonitor(&b2, mon.State()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two encodings of the same state differ")
	}
}

// Every single-byte corruption must be caught by magic, version, CRC, or
// section validation — never decoded into silently wrong state.
func TestCorruptionDetected(t *testing.T) {
	space, vs := fixture(21, 12, nil)
	mon := newMon(space, 12)
	appendAll(t, mon, vs)
	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, mon.State()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	stride := len(good)/97 + 1
	for off := 0; off < len(good); off += stride {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x20
		st, err := DecodeMonitor(bytes.NewReader(bad))
		if err == nil {
			// A flipped bit inside a float payload passes CRC only if the
			// CRC itself was flipped to match — impossible for one byte —
			// so reaching here means validation failed.
			t.Fatalf("corruption at offset %d decoded silently: %+v", off, st.Schedule)
		}
	}
	// Truncations at every frame boundary region must also fail.
	for _, cut := range []int{0, 3, 9, 12, len(good) / 2, len(good) - 1} {
		if _, err := DecodeMonitor(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes decoded silently", cut)
		}
	}
}

func TestUnsupportedVersion(t *testing.T) {
	space, vs := fixture(5, 6, nil)
	mon := newMon(space, 6)
	appendAll(t, mon, vs)
	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, mon.State()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] = 0xEE // version low byte, after the 8-byte magic
	raw[9] = 0x03
	_, err := DecodeMonitor(bytes.NewReader(raw))
	var uv *UnsupportedVersionError
	if !errors.As(err, &uv) {
		t.Fatalf("got %v, want *UnsupportedVersionError", err)
	}
	if uv.Version != 0x03EE {
		t.Fatalf("version = %#x, want 0x03ee", uv.Version)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := DecodeMonitor(bytes.NewReader([]byte("definitely not a snapshot"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestSaveLoadMonitorFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenant.fsnap")
	space, vs := fixture(8, 18, nil)
	mon := newMon(space, 18)
	appendAll(t, mon, vs[:10])
	size, err := SaveMonitor(path, mon.State())
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(size) {
		t.Fatalf("stat after save: %v (size %d, reported %d)", err, fi.Size(), size)
	}
	// Overwrite with a longer history; the swap must be atomic and the
	// new contents win.
	appendAll(t, mon, vs[10:])
	if _, err := SaveMonitor(path, mon.State()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMonitor(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 18 {
		t.Fatalf("loaded history = %d, want 18", loaded.Len())
	}
	sameMatrix(t, mon.Matrix(), loaded.Matrix())
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// TestSaveMonitorSyncsDirectory: SaveMonitor fsyncs the file's
// directory once the renamed file is in place, and a failed directory
// sync fails the save, so a checkpoint is not counted as written before
// its directory entry is durable.
func TestSaveMonitorSyncsDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenant.fsnap")
	space, vs := fixture(9, 6, nil)
	mon := newMon(space, 6)
	appendAll(t, mon, vs)
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	var synced []string
	errSync := errors.New("sync failed")
	syncDir = func(dir string) error {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory synced before the file was in place: %v", err)
		}
		synced = append(synced, dir)
		return errSync
	}
	if _, err := SaveMonitor(path, mon.State()); !errors.Is(err, errSync) {
		t.Fatalf("SaveMonitor = %v, want the directory sync error", err)
	}
	if want := []string{filepath.Dir(path)}; !reflect.DeepEqual(synced, want) {
		t.Fatalf("synced %q, want %q", synced, want)
	}
}

// lastFrame returns the payload of a snapshot's trailing frame, walking
// the frame lengths from the 11-byte header.
func lastFrame(t *testing.T, raw []byte) []byte {
	t.Helper()
	off, payload := 11, []byte(nil)
	for off < len(raw) {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		payload = raw[off+4 : off+4+n]
		off += 4 + n + 4
	}
	return payload
}

// TestWindowedMonitorRoundTrip pins the version-3 window frame: it
// carries the window and the eviction count and nothing else — no sweep
// configuration and no dendrogram, even when the live engine held a
// partition at checkpoint time. The restored monitor's first mode read
// rebuilds exactly once and matches the original, a repeat read is
// served from the cache, and the restored monitor keeps answering mode
// queries and evicting in lockstep with the original.
func TestWindowedMonitorRoundTrip(t *testing.T) {
	const W = 10
	space, vs := fixture(21, 30, nil)
	mon := core.NewMonitorOpts(space, testSched(30), core.MonitorOptions{
		Mode: core.PessimisticUnknown, Detect: core.DefaultDetectOptions(), Window: W,
	})
	appendAll(t, mon, vs[:24])
	want := mon.LiveModes() // engine live at checkpoint time

	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, mon.State()); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(buf.Bytes()[8:10]); v != 3 {
		t.Fatalf("encoded version %d, want 3", v)
	}
	if win := lastFrame(t, buf.Bytes()); len(win) != 16 {
		t.Fatalf("window frame is %d bytes, want 16 (window and evictions only)", len(win))
	}
	st, err := DecodeMonitor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Window != W || st.Evictions != 24-W {
		t.Fatalf("decoded window=%d evictions=%d, want %d/%d", st.Window, st.Evictions, W, 24-W)
	}
	rest, err := core.RestoreMonitor(st)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rest.Instrument(reg)
	sameModes(t, "restored LiveModes", rest.LiveModes(), want)
	rest.LiveModes()
	if n := reg.Counter("fenrir_monitor_mode_rebuilds_total").Value(); n != 1 {
		t.Fatalf("restored monitor rebuilt %d times over two reads, want 1", n)
	}
	cont := rebind(rest.Space(), vs[24:])
	for i, v := range vs[24:] {
		e1, ok1, err1 := mon.Append(v)
		e2, ok2, err2 := rest.Append(cont[i])
		if ok1 != ok2 || (err1 == nil) != (err2 == nil) || e1.Phi != e2.Phi {
			t.Fatalf("post-restore append at %d diverged", v.T)
		}
		sameModes(t, fmt.Sprintf("post-restore modes at %d", v.T), mon.LiveModes(), rest.LiveModes())
	}
	if rest.Window() != W {
		t.Fatalf("restored window = %d, want %d", rest.Window(), W)
	}
}

// v2Fixtures are version-2 files written by the version-2 encoder from
// the FuzzDecodeSnapshot monitor — fixture(13, 12), window 8 — after a
// mode read, so each window frame carries the engine's sweep
// configuration, flag 1 and 7 merges. The second is the same state with
// a NaN sweep step.
var v2Fixtures = []string{"v2-window8.fsnap", "v2-window8-nan-step.fsnap"}

// TestVersion2SnapshotsRestore: a daemon upgraded onto its own snapshot
// dir must still start, so version-2 files decode and restore, and their
// sweep configuration and dendrogram are discarded, never trusted. The
// first LiveModes must return promptly — the NaN step used to hang it
// with the monitor mutex held — and equal batch DiscoverModes with the
// default sweep.
func TestVersion2SnapshotsRestore(t *testing.T) {
	for _, name := range v2Fixtures {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(raw[8:10]); v != 2 {
			t.Fatalf("%s: fixture version %d, want 2", name, v)
		}
		// Window, evictions, four sweep fields, flag and 7 merges.
		if win := lastFrame(t, raw); len(win) != 16+25+1+4+7*16 || win[41] != 1 {
			t.Fatalf("%s: window frame of %d bytes does not carry a 7-merge dendrogram", name, len(win))
		}
		st, err := DecodeMonitor(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Window != 8 || st.Evictions != 4 || len(st.Vectors) != 8 {
			t.Fatalf("%s: decoded window=%d evictions=%d history=%d, want 8/4/8",
				name, st.Window, st.Evictions, len(st.Vectors))
		}
		m, err := core.RestoreMonitor(st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make(chan *core.ModesResult, 1)
		go func() { got <- m.LiveModes() }()
		select {
		case live := <-got:
			sameModes(t, name, live, core.DiscoverModes(m.Matrix(), core.DefaultAdaptiveOptions()))
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: first LiveModes still running after 10s", name)
		}
	}
}

// TestUnboundedSnapshotRestoresUnderDefaultWindow is the
// restart-with-window regression: an unbounded snapshot decoded under a
// daemon-wide default window must restore bounded — same suffix, Φ
// triangle, and eviction count as a fresh windowed monitor fed the
// identical stream — instead of staying unbounded forever the way it
// did before MonitorState.ApplyDefaultWindow existed.
func TestUnboundedSnapshotRestoresUnderDefaultWindow(t *testing.T) {
	const total, W = 30, 12
	space, vs := fixture(91, total, nil)
	mon := newMon(space, total)
	appendAll(t, mon, vs)

	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, mon.State()); err != nil {
		t.Fatal(err)
	}
	st, err := DecodeMonitor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Window != 0 {
		t.Fatalf("fixture snapshot has window %d, want unbounded", st.Window)
	}
	st.ApplyDefaultWindow(W)
	rest, err := core.RestoreMonitor(st)
	if err != nil {
		t.Fatal(err)
	}
	if rest.Window() != W || rest.Len() != W {
		t.Fatalf("restored window/len = %d/%d, want %d/%d", rest.Window(), rest.Len(), W, W)
	}

	fresh := core.NewMonitorOpts(space, testSched(total), core.MonitorOptions{
		Detect: core.DefaultDetectOptions(), Window: W,
	})
	appendAll(t, fresh, rebind(space, vs))
	sameMatrix(t, fresh.Matrix(), rest.Matrix())
	if a, b := fresh.Snapshot(), rest.Snapshot(); a.Evictions != b.Evictions || a.History != b.History {
		t.Fatalf("windowed restore diverges from fresh windowed monitor: %+v vs %+v", a, b)
	}
}

// TestVersion1MonitorRejected pins the retirement of format version 1:
// a version-1 monitor snapshot (no trailing window frame) is refused
// with *UnsupportedVersionError instead of being guessed at. The v1
// bytes are built from the current encoder by dropping the trailing
// frame and patching the header version.
func TestVersion1MonitorRejected(t *testing.T) {
	space, vs := fixture(33, 16, nil)
	mon := newMon(space, 16)
	appendAll(t, mon, vs)

	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, mon.State()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Walk the five v1 frames (space, config, vectors, sim, stats) to
	// find where the window frame starts, then truncate it away.
	off := 11 // magic + version + kind
	for i := 0; i < 5; i++ {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4 + n + 4
	}
	v1 := append([]byte(nil), raw[:off]...)
	binary.LittleEndian.PutUint16(v1[8:10], 1)

	_, err := DecodeMonitor(bytes.NewReader(v1))
	var uv *UnsupportedVersionError
	if !errors.As(err, &uv) || uv.Version != 1 {
		t.Fatalf("version-1 snapshot: got %v, want *UnsupportedVersionError for version 1", err)
	}
}

// hugeCountSnapshot is a monitor snapshot whose config frame, CRC
// intact, claims 2^32-1 weights while carrying one: a decoder that
// trusts the count asks for a 32 GiB slice before noticing the payload
// ends.
func hugeCountSnapshot(tb testing.TB) []byte {
	tb.Helper()
	space, vs := fixture(5, 4, nil)
	mon := newMon(space, 4)
	for _, v := range vs {
		if _, _, err := mon.Append(v); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, mon.State()); err != nil {
		tb.Fatal(err)
	}
	raw := buf.Bytes()
	cfgOff := 11 + 4 + int(binary.LittleEndian.Uint32(raw[11:])) + 4
	cfgEnd := cfgOff + 4 + int(binary.LittleEndian.Uint32(raw[cfgOff:])) + 4

	var cfg enc
	encodeSchedule(&cfg, testSched(4))
	cfg.u8(1)
	cfg.u32(math.MaxUint32)
	cfg.f64(1)
	var out bytes.Buffer
	out.Write(raw[:cfgOff])
	if err := writeFrame(&out, cfg.buf); err != nil {
		tb.Fatal(err)
	}
	out.Write(raw[cfgEnd:])
	return out.Bytes()
}

// hugeFrameSnapshot is a monitor header followed by a space frame whose
// length prefix claims 512 MiB while the file ends 16 bytes later.
func hugeFrameSnapshot(tb testing.TB) []byte {
	tb.Helper()
	var out bytes.Buffer
	if err := writeHeader(&out, kindMonitor); err != nil {
		tb.Fatal(err)
	}
	out.Write(binary.LittleEndian.AppendUint32(nil, 1<<29))
	out.Write(make([]byte, 16))
	return out.Bytes()
}

// duplicateNetworkSnapshot is a monitor snapshot whose space frame, CRC
// intact, names one network twice.
func duplicateNetworkSnapshot(tb testing.TB) []byte {
	tb.Helper()
	space, vs := fixture(5, 4, nil)
	mon := newMon(space, 4)
	for _, v := range vs {
		if _, _, err := mon.Append(v); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, mon.State()); err != nil {
		tb.Fatal(err)
	}
	raw := buf.Bytes()
	spaceEnd := 11 + 4 + int(binary.LittleEndian.Uint32(raw[11:])) + 4
	var sp enc
	sp.u32(2)
	sp.str("net-a")
	sp.str("net-a")
	sp.u32(0)
	var out bytes.Buffer
	out.Write(raw[:11])
	if err := writeFrame(&out, sp.buf); err != nil {
		tb.Fatal(err)
	}
	out.Write(raw[spaceEnd:])
	return out.Bytes()
}

// TestDuplicateNetworkRejected: a snapshot file comes from outside the
// process, so a network named twice is a *CorruptError, where building
// the space from it used to panic.
func TestDuplicateNetworkRejected(t *testing.T) {
	_, err := DecodeMonitor(bytes.NewReader(duplicateNetworkSnapshot(t)))
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Section != "space" {
		t.Fatalf("got %v, want *CorruptError in the space section", err)
	}
}

// nanSimSnapshot is a monitor snapshot, every frame's CRC intact, whose
// sim frame holds a NaN Φ.
func nanSimSnapshot(tb testing.TB) []byte {
	tb.Helper()
	space, vs := fixture(5, 6, nil)
	mon := newMon(space, 6)
	for _, v := range vs {
		if _, _, err := mon.Append(v); err != nil {
			tb.Fatal(err)
		}
	}
	st := mon.State()
	st.Sim[4] = append([]float64(nil), st.Sim[4]...) // State shares the monitor's rows
	st.Sim[4][1] = math.NaN()
	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, st); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestNaNSimRejected: a NaN Φ is untrusted input the CRC cannot catch.
// The file decodes, and core.RestoreMonitor must refuse it; it used to
// restore into a monitor whose every mode read could hang NN-chain HAC.
func TestNaNSimRejected(t *testing.T) {
	st, err := DecodeMonitor(bytes.NewReader(nanSimSnapshot(t)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !math.IsNaN(st.Sim[4][1]) {
		t.Fatalf("sim[4][1] = %v, want the encoded NaN", st.Sim[4][1])
	}
	if _, err := core.RestoreMonitor(st); err == nil {
		t.Fatal("restored a monitor with a NaN Φ")
	}
}

// TestHugeElementCountRejectedCheaply: crafted element counts and frame
// lengths must be bounded by the bytes actually present before anything
// is allocated — each file decodes to *CorruptError within a small
// allocation budget, where trusting the count used to abort the process
// out of memory (and the frame length cost its full 512 MiB).
func TestHugeElementCountRejectedCheaply(t *testing.T) {
	for _, tc := range []struct {
		name, section string
		raw           []byte
		budget        uint64
	}{
		{"weights count", "config", hugeCountSnapshot(t), 1 << 20},
		{"frame length", "space", hugeFrameSnapshot(t), 2 * frameChunk},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeMonitor(bytes.NewReader(tc.raw))
		runtime.ReadMemStats(&after)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != tc.section {
			t.Fatalf("%s: got %v, want *CorruptError in the %s section", tc.name, err, tc.section)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= tc.budget {
			t.Fatalf("%s: decoding the crafted file allocated %d bytes, want < %d", tc.name, grew, tc.budget)
		}
	}
}

// FuzzDecodeSnapshot: no input may panic the decoders. Every error is
// one of the typed snapshot errors, every decoded state re-encodes to
// the whole-frame oracle's bytes, every decoded monitor state is either
// accepted or rejected with an error by core.RestoreMonitor, and every
// accepted monitor answers its first mode read.
func FuzzDecodeSnapshot(f *testing.F) {
	space, vs := fixture(13, 12, nil)
	mon := core.NewMonitorOpts(space, testSched(12), core.MonitorOptions{
		Mode: core.PessimisticUnknown, Detect: core.DefaultDetectOptions(), Window: 8,
	})
	for _, v := range vs {
		if _, _, err := mon.Append(v); err != nil {
			f.Fatal(err)
		}
	}
	var monBuf bytes.Buffer
	if err := EncodeMonitor(&monBuf, mon.State()); err != nil {
		f.Fatal(err)
	}
	// A baseline window no detector may size anything by.
	huge := mon.State()
	huge.Detect.Window = math.MaxInt
	var hugeBuf bytes.Buffer
	if err := EncodeMonitor(&hugeBuf, huge); err != nil {
		f.Fatal(err)
	}
	f.Add(monBuf.Bytes())
	f.Add(hugeBuf.Bytes())
	f.Add(hugeCountSnapshot(f))
	f.Add(duplicateNetworkSnapshot(f))
	f.Add(hugeFrameSnapshot(f))
	f.Add(nanSimSnapshot(f))
	for _, name := range v2Fixtures {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	typed := func(t *testing.T, err error) {
		var ce *CorruptError
		var uv *UnsupportedVersionError
		if !errors.As(err, &ce) && !errors.As(err, &uv) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("untyped decode error %T: %v", err, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeMonitor(bytes.NewReader(data))
		if err != nil {
			typed(t, err)
			return
		}
		sameAsOracle(t, "decoded input", st)
		if m, err := core.RestoreMonitor(st); err == nil {
			m.LiveModes()
		}
	})
}

// --- The whole-frame encoder, kept as the byte-identity oracle ---------
//
// EncodeMonitor used to build each frame's payload whole, by appending,
// and write it with its length and CRC after. It is kept here, unchanged
// in output, so the streamed encoder can be held to it byte for byte.

// enc is a deterministic little-endian payload builder.
type enc struct {
	buf []byte
}

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// writeHeader emits magic, version, and kind.
func writeHeader(w io.Writer, kind uint8) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	var hdr [3]byte
	binary.LittleEndian.PutUint16(hdr[:2], Version)
	hdr[2] = kind
	_, err := w.Write(hdr[:])
	return err
}

// writeFrame emits one CRC-checked frame.
func writeFrame(w io.Writer, payload []byte) error {
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(len(payload)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(pre[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(pre[:])
	return err
}

// encodeSpace renders the space section: the network universe in row
// order, then the interned site alphabet in interning order.
func encodeSpace(s *core.Space) []byte {
	var e enc
	e.u32(uint32(s.NumNetworks()))
	for i := 0; i < s.NumNetworks(); i++ {
		e.str(s.Network(i))
	}
	sites := s.Sites()
	e.u32(uint32(len(sites)))
	for _, site := range sites {
		e.str(site)
	}
	return e.buf
}

// encodeSchedule renders a schedule as (start unix-nanos, interval,
// length).
func encodeSchedule(e *enc, sched timeline.Schedule) {
	e.i64(sched.Start.UnixNano())
	e.i64(int64(sched.Interval))
	e.i64(int64(sched.N))
}

// encodeVectors renders the observation history: per-vector epoch plus
// the raw interned assignment row.
func encodeVectors(space *core.Space, vs []*core.Vector) []byte {
	var e enc
	e.u32(uint32(len(vs)))
	e.u32(uint32(space.NumNetworks()))
	for _, v := range vs {
		e.i64(int64(v.T))
		for _, a := range v.Assignments() {
			e.u32(uint32(a))
		}
	}
	return e.buf
}

// encodeWhole is the whole-frame monitor encoder.
func encodeWhole(w io.Writer, st core.MonitorState) error {
	if err := writeHeader(w, kindMonitor); err != nil {
		return err
	}
	if err := writeFrame(w, encodeSpace(st.Space)); err != nil {
		return err
	}

	var cfg enc
	encodeSchedule(&cfg, st.Schedule)
	if st.Weights != nil {
		cfg.u8(1)
		cfg.u32(uint32(len(st.Weights)))
		for _, wt := range st.Weights {
			cfg.f64(wt)
		}
	} else {
		cfg.u8(0)
	}
	cfg.u8(uint8(st.Mode))
	cfg.i64(int64(st.Detect.Window))
	cfg.f64(st.Detect.MinDrop)
	cfg.u8(uint8(st.Detect.Mode))
	cfg.i64(int64(st.Detect.Cooldown))
	if err := writeFrame(w, cfg.buf); err != nil {
		return err
	}

	if err := writeFrame(w, encodeVectors(st.Space, st.Vectors)); err != nil {
		return err
	}

	var sim enc
	sim.u32(uint32(len(st.Sim)))
	for _, row := range st.Sim {
		for _, phi := range row {
			sim.f64(phi)
		}
	}
	if err := writeFrame(w, sim.buf); err != nil {
		return err
	}

	var stats enc
	stats.u64(st.Appends)
	stats.u64(st.Events)
	stats.i64(int64(st.TotalIngest))
	stats.i64(int64(st.LastIngest))
	stats.i64(int64(st.LastEvent))
	if st.HasEvent {
		stats.u8(1)
	} else {
		stats.u8(0)
	}
	if err := writeFrame(w, stats.buf); err != nil {
		return err
	}

	var win enc
	win.i64(int64(st.Window))
	win.u64(st.Evictions)
	return writeFrame(w, win.buf)
}

// sameAsOracle fails unless EncodeMonitor writes exactly the bytes the
// whole-frame encoder writes for st, and returns them.
func sameAsOracle(t *testing.T, where string, st core.MonitorState) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := EncodeMonitor(&got, st); err != nil {
		t.Fatalf("%s: EncodeMonitor: %v", where, err)
	}
	if err := encodeWhole(&want, st); err != nil {
		t.Fatalf("%s: whole-frame encoder: %v", where, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		n := 0
		for n < min(got.Len(), want.Len()) && got.Bytes()[n] == want.Bytes()[n] {
			n++
		}
		t.Fatalf("%s: streamed encoding (%d bytes) differs from the whole-frame oracle (%d bytes) at offset %d",
			where, got.Len(), want.Len(), n)
	}
	return got.Bytes()
}

// servedMonitor is a Window=W monitor fed 3W/2+10 observations of the
// serve-deep routing model, the one core's tests of the live mode
// engine use: 256 networks over 5 sites, 30% of cells unobserved, 2%
// flipped to a random site, and a move to another of 4 recurring modes
// every 10 epochs, so its Φ triangle has been slid by evictions.
// Options other than the window (weights, unknown mode) come from opts.
func servedMonitor(tb testing.TB, W int, seed uint64, opts core.MonitorOptions) *core.Monitor {
	tb.Helper()
	const networks, numModes = 256, 4
	r := rng.New(seed)
	space := core.NewSpace(nets(networks))
	sites := []string{"A", "B", "C", "D", "E"}
	modes := make([][]string, numModes)
	for k := range modes {
		modes[k] = make([]string, networks)
		for i := range modes[k] {
			modes[k][i] = sites[r.Intn(len(sites))]
		}
	}
	opts.Detect, opts.Window = core.DefaultDetectOptions(), W
	mon := core.NewMonitorOpts(space, testSched(1<<20), opts)
	cur := 0
	for e := 0; e < W+W/2+10; e++ {
		if e > 0 && e%10 == 0 {
			cur = (cur + 1 + r.Intn(numModes-1)) % numModes
		}
		v := space.NewVector(timeline.Epoch(e))
		for i, site := range modes[cur] {
			switch {
			case r.Bool(0.3):
			case r.Bool(0.02):
				v.Set(i, sites[r.Intn(len(sites))])
			default:
				v.Set(i, site)
			}
		}
		if _, _, err := mon.Append(v); err != nil {
			tb.Fatal(err)
		}
	}
	return mon
}

// TestEncodeMatchesWholeFrameOracle: the streamed encoder writes the
// whole-frame encoder's bytes for every state shape a daemon holds — no
// history, one vector, windows of 2, 64 and 1024 slid by evictions,
// nil and non-nil weights, known-only Φ, and both version-2 fixtures as
// decoded — and SaveMonitor's file is those bytes, its returned size
// the file's size.
func TestEncodeMatchesWholeFrameOracle(t *testing.T) {
	type state struct {
		name string
		st   core.MonitorState
	}
	states := []state{{"empty", newMon(core.NewSpace(nets(120)), 4).State()}}
	space, vs := fixture(4, 1, nil)
	one := newMon(space, 1)
	appendAll(t, one, vs)
	states = append(states, state{"one vector", one.State()})
	for _, W := range []int{2, 64, 1024} {
		states = append(states, state{fmt.Sprintf("W=%d", W), servedMonitor(t, W, uint64(W), core.MonitorOptions{}).State()})
	}
	weights := make([]float64, 256)
	for i := range weights {
		weights[i] = 1 + float64(i%5)/4
	}
	states = append(states,
		state{"weighted W=64", servedMonitor(t, 64, 7, core.MonitorOptions{Weights: weights}).State()},
		state{"known-only W=64", servedMonitor(t, 64, 8, core.MonitorOptions{Mode: core.KnownOnly}).State()},
		state{"known-only weighted W=64", servedMonitor(t, 64, 9, core.MonitorOptions{Mode: core.KnownOnly, Weights: weights}).State()},
	)
	for _, name := range v2Fixtures {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		st, err := DecodeMonitor(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		states = append(states, state{name, st})
	}

	dir := t.TempDir()
	for _, s := range states {
		want := sameAsOracle(t, s.name, s.st)
		path := filepath.Join(dir, "tenant.fsnap")
		size, err := SaveMonitor(path, s.st)
		if err != nil {
			t.Fatalf("%s: SaveMonitor: %v", s.name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || size != len(got) {
			t.Fatalf("%s: SaveMonitor wrote %d bytes and reported %d; EncodeMonitor wrote %d (equal: %v)",
				s.name, len(got), size, len(want), bytes.Equal(got, want))
		}
	}
}

// TestCheckpointAllocationsFlat: a checkpoint's memory does not grow
// with the window. EncodeMonitor and SaveMonitor of W=64 and W=1024
// serve-deep states each allocate under 256 KiB, where building every
// frame whole allocated 27.4 MB to encode the W=1024 state and 33.7 MB
// to save it.
func TestCheckpointAllocationsFlat(t *testing.T) {
	const budget = 256 << 10
	dir := t.TempDir()
	for _, W := range []int{64, 1024} {
		st := servedMonitor(t, W, 5, core.MonitorOptions{}).State()
		path := filepath.Join(dir, "tenant.fsnap")
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"EncodeMonitor", func() error { return EncodeMonitor(io.Discard, st) }},
			{"SaveMonitor", func() error { _, err := SaveMonitor(path, st); return err }},
		} {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			err := op.run()
			runtime.ReadMemStats(&ms1)
			if err != nil {
				t.Fatalf("W=%d %s: %v", W, op.name, err)
			}
			if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew >= budget {
				t.Fatalf("W=%d %s allocated %d bytes, want < %d", W, op.name, grew, budget)
			}
		}
	}
}

// failWriter accepts limit bytes and fails the write that would pass
// them and every write after, keeping what it accepted and counting the
// writes made after its failure.
type failWriter struct {
	limit  int
	got    []byte
	failed bool
	after  int
}

var errWriteFailed = errors.New("write failed")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.after++
		return 0, errWriteFailed
	}
	n := min(len(p), w.limit-len(w.got))
	w.got = append(w.got, p[:n]...)
	if n < len(p) {
		w.failed = true
		return n, errWriteFailed
	}
	return n, nil
}

// TestEncodeStopsAtWriteError: EncodeMonitor into a writer that fails
// after k bytes returns that writer's error and makes no write after
// it, for k at every frame boundary, at the buffer's boundaries and
// inside the vectors and Φ payloads; what the writer accepted is the
// snapshot's first k bytes.
func TestEncodeStopsAtWriteError(t *testing.T) {
	st := servedMonitor(t, 64, 3, core.MonitorOptions{}).State()
	want := sameAsOracle(t, "W=64", st)
	cuts := []int{0, 11, writeBufSize - 1, writeBufSize, writeBufSize + 1, 2 * writeBufSize}
	for off, frame := 11, 0; off < len(want); frame++ {
		n := int(binary.LittleEndian.Uint32(want[off:]))
		cuts = append(cuts, off+4, off+4+n, off+8+n) // payload, CRC, next frame
		if frame == 2 || frame == 3 {                // vectors, sim
			for _, k := range []int{1, 5, 8 + 4*256 + 3, n / 2, n - 1} {
				cuts = append(cuts, off+4+k)
			}
		}
		off += 8 + n
	}
	for _, k := range cuts {
		if k >= len(want) {
			continue // the writer never fails
		}
		w := &failWriter{limit: k}
		if err := EncodeMonitor(w, st); !errors.Is(err, errWriteFailed) {
			t.Fatalf("fail after %d bytes: EncodeMonitor = %v, want the writer's error", k, err)
		}
		if w.after != 0 {
			t.Fatalf("fail after %d bytes: %d writes after the failed one", k, w.after)
		}
		if !bytes.Equal(w.got, want[:k]) {
			t.Fatalf("fail after %d bytes: the writer accepted bytes that are not the snapshot's first %d", k, k)
		}
	}
}
