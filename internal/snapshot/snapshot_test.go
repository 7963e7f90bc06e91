package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// one of the typed snapshot errors, every decoded monitor state is
// either accepted or rejected with an error by core.RestoreMonitor, and
// every accepted monitor answers its first mode read.
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
		if m, err := core.RestoreMonitor(st); err == nil {
			m.LiveModes()
		}
	})
}
