package core

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fenrir/internal/obs"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

func monitorFixtureVectors(n int) (*Space, []*Vector) {
	r := rng.New(55)
	s := NewSpace(nets(200))
	var vs []*Vector
	for e := 0; e < n; e++ {
		v := s.NewVector(timeline.Epoch(e))
		base := "A"
		if e >= n/2 {
			base = "B"
		}
		for i := 0; i < 200; i++ {
			if r.Bool(0.02) {
				continue
			}
			v.Set(i, base)
		}
		vs = append(vs, v)
	}
	return s, vs
}

func TestMonitorMatrixMatchesBatch(t *testing.T) {
	space, vs := monitorFixtureVectors(24)
	mon := NewMonitor(space, sched(24), nil, PessimisticUnknown, DefaultDetectOptions())
	for _, v := range vs {
		mon.Append(v)
	}
	batch := SimilarityMatrix(NewSeries(space, sched(24), vs, nil), nil, PessimisticUnknown)
	inc := mon.Matrix()
	if inc.N != batch.N {
		t.Fatalf("N %d != %d", inc.N, batch.N)
	}
	for i := 0; i < inc.N; i++ {
		for j := 0; j < inc.N; j++ {
			if inc.At(i, j) != batch.At(i, j) {
				t.Fatalf("cell (%d,%d): %v != %v", i, j, inc.At(i, j), batch.At(i, j))
			}
		}
	}
}

func TestMonitorDetectsChangeOnAppend(t *testing.T) {
	space, vs := monitorFixtureVectors(40)
	opts := DefaultDetectOptions()
	mon := NewMonitor(space, sched(40), nil, PessimisticUnknown, opts)
	var fired []timeline.Epoch
	for _, v := range vs {
		ev, ok, err := mon.Append(v)
		if err != nil {
			t.Fatalf("append epoch %d: %v", v.T, err)
		}
		if ok {
			fired = append(fired, ev.At)
		}
	}
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("events = %v, want exactly epoch 20", fired)
	}
	// Stream detection must match batch detection.
	batch := DetectChanges(mon.Series(), nil, opts)
	if len(batch) != 1 || batch[0].At != 20 {
		t.Fatalf("batch events = %+v", batch)
	}
}

func TestMonitorCurrentMode(t *testing.T) {
	space, vs := monitorFixtureVectors(24)
	mon := NewMonitor(space, sched(24), nil, PessimisticUnknown, DefaultDetectOptions())
	if mon.CurrentMode(DefaultAdaptiveOptions()) != nil {
		t.Fatal("empty monitor has a current mode")
	}
	for _, v := range vs {
		mon.Append(v)
	}
	cur := mon.CurrentMode(DefaultAdaptiveOptions())
	if cur == nil {
		t.Fatal("no current mode")
	}
	// The latest epoch sits in the B-era mode, which must not contain
	// epoch 0.
	for _, e := range cur.Epochs {
		if e == 0 {
			t.Fatal("current mode spans the old era")
		}
	}
}

func TestMonitorTrimBefore(t *testing.T) {
	space, vs := monitorFixtureVectors(24)
	mon := NewMonitor(space, sched(24), nil, PessimisticUnknown, DefaultDetectOptions())
	for _, v := range vs {
		mon.Append(v)
	}
	mon.TrimBefore(12)
	if mon.Len() != 12 {
		t.Fatalf("Len after trim = %d, want 12", mon.Len())
	}
	// Matrix over the retained window must match batch over the same.
	batch := SimilarityMatrix(NewSeries(space, sched(24), vs[12:], nil), nil, PessimisticUnknown)
	inc := mon.Matrix()
	for i := 0; i < inc.N; i++ {
		for j := 0; j < inc.N; j++ {
			if inc.At(i, j) != batch.At(i, j) {
				t.Fatalf("post-trim cell (%d,%d): %v != %v", i, j, inc.At(i, j), batch.At(i, j))
			}
		}
	}
	// Trimming before the first epoch is a no-op.
	mon.TrimBefore(0)
	if mon.Len() != 12 {
		t.Fatal("no-op trim changed history")
	}
}

// Regression: Append documented "epochs must be appended in increasing
// order" but an out-of-order append corrupted (or crashed) the stream
// instead of being rejected with a typed error the serving layer can map
// to a 400. The monitor's state must be untouched by the rejection.
func TestMonitorAppendOutOfOrderTypedError(t *testing.T) {
	space, vs := monitorFixtureVectors(4)
	mon := NewMonitor(space, sched(4), nil, PessimisticUnknown, DefaultDetectOptions())
	if _, _, err := mon.Append(vs[2]); err != nil {
		t.Fatalf("in-order append rejected: %v", err)
	}

	_, _, err := mon.Append(vs[1])
	var ooo *OutOfOrderEpochError
	if !errors.As(err, &ooo) {
		t.Fatalf("out-of-order append returned %v, want *OutOfOrderEpochError", err)
	}
	if ooo.Epoch != 1 || ooo.Newest != 2 {
		t.Fatalf("error fields = %+v, want Epoch 1 Newest 2", ooo)
	}

	_, _, err = mon.Append(vs[2])
	var dup *DuplicateEpochError
	if !errors.As(err, &dup) {
		t.Fatalf("duplicate append returned %v, want *DuplicateEpochError", err)
	}
	if dup.Epoch != 2 {
		t.Fatalf("duplicate error epoch = %d, want 2", dup.Epoch)
	}

	// The rejections left no trace: history unchanged, the next in-order
	// epoch still lands, and ingest stats counted only accepted appends.
	if mon.Len() != 1 {
		t.Fatalf("rejected appends changed history: Len = %d, want 1", mon.Len())
	}
	if _, _, err := mon.Append(vs[3]); err != nil {
		t.Fatalf("in-order append after rejections: %v", err)
	}
	if snap := mon.Snapshot(); snap.Appends != 2 {
		t.Fatalf("Appends = %d, want 2 (rejections must not count)", snap.Appends)
	}
}

func TestMonitorForeignSpacePanics(t *testing.T) {
	space, _ := monitorFixtureVectors(4)
	other := NewSpace(nets(200))
	mon := NewMonitor(space, sched(4), nil, PessimisticUnknown, DefaultDetectOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("foreign-space vector accepted")
		}
	}()
	mon.Append(other.NewVector(0))
}

// State export → RestoreMonitor → continue appending must be
// indistinguishable from an uninterrupted monitor: identical matrix
// bits, identical detection, identical ingest counts.
func TestMonitorStateRestoreContinuation(t *testing.T) {
	space, vs := monitorFixtureVectors(40)
	uninterrupted := NewMonitor(space, sched(40), nil, PessimisticUnknown, DefaultDetectOptions())
	first := NewMonitor(space, sched(40), nil, PessimisticUnknown, DefaultDetectOptions())
	for _, v := range vs {
		if _, _, err := uninterrupted.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range vs[:17] {
		if _, _, err := first.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := RestoreMonitor(first.State())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var fired []timeline.Epoch
	for _, v := range vs[17:] {
		ev, ok, err := restored.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fired = append(fired, ev.At)
		}
	}
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("restored monitor events = %v, want exactly epoch 20", fired)
	}
	a, b := uninterrupted.Matrix(), restored.Matrix()
	if a.N != b.N {
		t.Fatalf("matrix sizes differ: %d vs %d", a.N, b.N)
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("cell (%d,%d): %v != %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
	sa, sb := uninterrupted.Snapshot(), restored.Snapshot()
	if sa.Appends != sb.Appends || sa.Events != sb.Events ||
		sa.History != sb.History || sa.LastEvent != sb.LastEvent || sa.HasEvent != sb.HasEvent {
		t.Fatalf("snapshots diverge: %+v vs %+v", sa, sb)
	}
}

// TestMonitorConcurrentIngest exercises the monitor's concurrency
// contract under the race detector: several goroutines take turns
// appending (epoch order enforced by passing the next index through a
// channel) while other goroutines hammer Snapshot. Run with -race.
func TestMonitorConcurrentIngest(t *testing.T) {
	space, vs := monitorFixtureVectors(64)
	mon := NewMonitor(space, sched(64), nil, PessimisticUnknown, DefaultDetectOptions())
	reg := obs.NewRegistry()
	mon.Instrument(reg)

	const writers = 4
	next := make(chan int, 1)
	next <- 0
	var wg sync.WaitGroup
	for k := 0; k < writers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := <-next
				if i >= len(vs) {
					next <- i
					return
				}
				mon.Append(vs[i])
				next <- i + 1
			}
		}()
	}

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for k := 0; k < 3; k++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			var prev uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := mon.Snapshot()
				if snap.Appends < prev {
					t.Error("appends went backwards")
					return
				}
				prev = snap.Appends
				if snap.Appends > 0 && snap.TotalIngest <= 0 {
					t.Error("appends recorded without ingest time")
					return
				}
				mon.Len()
			}
		}()
	}

	wg.Wait()
	close(stop)
	pollers.Wait()

	snap := mon.Snapshot()
	if snap.Appends != 64 || snap.History != 64 {
		t.Fatalf("snapshot = %+v, want 64 appends/history", snap)
	}
	if snap.Events == 0 || !snap.HasEvent || snap.LastEvent != 32 {
		t.Fatalf("change event not reflected in snapshot: %+v", snap)
	}
	if snap.MeanIngest() <= 0 || snap.LastIngest <= 0 {
		t.Fatalf("ingest latency not tracked: %+v", snap)
	}
	if got := reg.Counter("fenrir_monitor_appends_total").Value(); got != 64 {
		t.Fatalf("appends counter = %d, want 64", got)
	}
	if got := reg.Counter("fenrir_monitor_events_total").Value(); got != int64(snap.Events) {
		t.Fatalf("events counter = %d, want %d", got, snap.Events)
	}
	if reg.Histogram("fenrir_monitor_ingest_seconds").Count() != 64 {
		t.Fatal("ingest histogram not fed")
	}
	// The streamed result must still equal the batch pipeline.
	batch := SimilarityMatrix(NewSeries(space, sched(64), vs, nil), nil, PessimisticUnknown)
	inc := mon.Matrix()
	for i := 0; i < inc.N; i++ {
		for j := 0; j < inc.N; j++ {
			if inc.At(i, j) != batch.At(i, j) {
				t.Fatalf("cell (%d,%d): %v != %v", i, j, inc.At(i, j), batch.At(i, j))
			}
		}
	}
}

// gapSeries builds a deterministic series with collection gaps (epochs
// skip ahead), mode shifts, and unknowns — the adversarial input for
// streaming-vs-batch detector equivalence.
func gapSeries(networks int, seed uint64) (*Space, []*Vector) {
	r := rng.New(seed)
	s := NewSpace(nets(networks))
	sites := []string{"A", "B", "C"}
	var vs []*Vector
	e := timeline.Epoch(0)
	for k := 0; k < 120; k++ {
		if r.Bool(0.07) {
			e += timeline.Epoch(1 + r.Intn(4)) // gap: break adjacency
		}
		v := s.NewVector(e)
		base := sites[(k/22)%len(sites)]
		for i := 0; i < networks; i++ {
			switch {
			case r.Bool(0.05):
				// leave Unknown
			case r.Bool(0.1):
				v.Set(i, sites[r.Intn(len(sites))])
			default:
				v.Set(i, base)
			}
		}
		vs = append(vs, v)
		e++
	}
	return s, vs
}

// TestMonitorStreamingDetectorMatchesBatch is the satellite-1 proof:
// for same-seed gap-y series, the events the incremental per-append
// detector fires must equal (epoch, Φ, baseline, magnitude — all
// bitwise) the events batch DetectChanges reports over the same
// history, across both modes, weighted and uniform, and with
// detect.Mode differing from the monitor's similarity mode.
func TestMonitorStreamingDetectorMatchesBatch(t *testing.T) {
	for _, seed := range []uint64{41, 42, 43} {
		space, vs := gapSeries(150, seed)
		weights := [][]float64{nil, randomWeights(150, seed+9)}
		for _, simMode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
			for _, detMode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
				for wi, w := range weights {
					opts := DetectOptions{Window: 12, MinDrop: 0.04, Mode: detMode, Cooldown: 2}
					mon := NewMonitor(space, sched(1<<20), w, simMode, opts)
					var stream []ChangeEvent
					for _, v := range vs {
						ev, ok, err := mon.Append(v)
						if err != nil {
							t.Fatalf("seed=%d: append epoch %d: %v", seed, v.T, err)
						}
						if ok {
							stream = append(stream, ev)
						}
					}
					batch := DetectChanges(mon.Series(), w, opts)
					if len(stream) != len(batch) {
						t.Fatalf("seed=%d sim=%v det=%v w=%d: %d streamed events, %d batch",
							seed, simMode, detMode, wi, len(stream), len(batch))
					}
					for i := range batch {
						// DeepEqual follows the Explanation pointer, so
						// provenance (contributors, flows, verdict) must
						// match field for field, not just the scalars.
						if !reflect.DeepEqual(stream[i], batch[i]) {
							t.Fatalf("seed=%d sim=%v det=%v w=%d: event %d: stream %+v, batch %+v",
								seed, simMode, detMode, wi, i, stream[i], batch[i])
						}
					}
					if len(batch) == 0 {
						t.Fatalf("seed=%d sim=%v det=%v w=%d: fixture fired no events — test is vacuous",
							seed, simMode, detMode, wi)
					}
				}
			}
		}
	}
}

// TestMonitorTrimDetectorEquivalence pins TrimBefore's detector
// semantics: after trimming, the monitor must fire exactly the events a
// monitor that only ever saw the retained suffix would fire.
func TestMonitorTrimDetectorEquivalence(t *testing.T) {
	space, vs := monitorFixtureVectors(60)
	opts := DefaultDetectOptions()
	trimmed := NewMonitor(space, sched(60), nil, PessimisticUnknown, opts)
	for _, v := range vs[:40] {
		if _, _, err := trimmed.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	trimmed.TrimBefore(20)
	fresh := NewMonitor(space, sched(60), nil, PessimisticUnknown, opts)
	for _, v := range vs[20:40] {
		if _, _, err := fresh.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range vs[40:] {
		evA, okA, errA := trimmed.Append(v)
		evB, okB, errB := fresh.Append(v)
		if errA != nil || errB != nil {
			t.Fatalf("append epoch %d: %v / %v", v.T, errA, errB)
		}
		if okA != okB || evA != evB {
			t.Fatalf("epoch %d: trimmed (%v,%v) vs fresh (%v,%v)", v.T, evA, okA, evB, okB)
		}
	}
}

// TestRestoreMonitorInvalidDetectMode asserts a corrupt snapshot's
// detection mode comes back as an error, not a panic.
func TestRestoreMonitorInvalidDetectMode(t *testing.T) {
	space, vs := monitorFixtureVectors(4)
	mon := NewMonitor(space, sched(4), nil, PessimisticUnknown, DefaultDetectOptions())
	for _, v := range vs {
		if _, _, err := mon.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	st := mon.State()
	st.Detect.Mode = UnknownMode(99)
	if _, err := RestoreMonitor(st); err == nil {
		t.Fatal("invalid detection mode accepted")
	}
}

// TestRestoreMonitorHugeDetectWindow: a snapshot's baseline window is
// untrusted input. A MaxInt window must restore without a panic and
// without anything sized by it, then detect exactly like a monitor
// built with that window and fed the same stream.
func TestRestoreMonitorHugeDetectWindow(t *testing.T) {
	space, vs := monitorFixtureVectors(40)
	opts := DefaultDetectOptions()
	opts.Window = math.MaxInt
	ref := NewMonitor(space, sched(40), nil, PessimisticUnknown, opts)
	first := NewMonitor(space, sched(40), nil, PessimisticUnknown, DefaultDetectOptions())
	var want, got []ChangeEvent
	for i, v := range vs {
		ev, ok, err := ref.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if i < 17 {
			if _, _, err := first.Append(v); err != nil {
				t.Fatal(err)
			}
		} else if ok {
			want = append(want, ev)
		}
	}
	st := first.State()
	st.Detect.Window = math.MaxInt
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rest, err := RestoreMonitor(st)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("restoring 17 epochs allocated %d bytes", grew)
	}
	for _, v := range vs[17:] {
		ev, ok, err := rest.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got = append(got, ev)
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("events after restore %+v, want %+v", got, want)
	}
}

// TestMonitorStateRestoreWeightedKnownOnly extends the continuation
// proof to the weighted known-only configuration — the packed kernels'
// hardest case (per-pair total accumulator) must survive a restore
// bit-identically too.
func TestMonitorStateRestoreWeightedKnownOnly(t *testing.T) {
	space, vs := gapSeries(130, 77)
	w := randomWeights(130, 78)
	opts := DetectOptions{Window: 10, MinDrop: 0.04, Mode: KnownOnly, Cooldown: 1}
	uninterrupted := NewMonitor(space, sched(1<<20), w, KnownOnly, opts)
	first := NewMonitor(space, sched(1<<20), w, KnownOnly, opts)
	for _, v := range vs {
		if _, _, err := uninterrupted.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range vs[:50] {
		if _, _, err := first.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := RestoreMonitor(first.State())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, v := range vs[50:] {
		if _, _, err := restored.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	a, b := uninterrupted.Matrix(), restored.Matrix()
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("cell (%d,%d): %v != %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
	sa, sb := uninterrupted.Snapshot(), restored.Snapshot()
	if sa.Events != sb.Events || sa.LastEvent != sb.LastEvent || sa.HasEvent != sb.HasEvent {
		t.Fatalf("snapshots diverge: %+v vs %+v", sa, sb)
	}
}

// ApplyDefaultWindow on an unbounded exported state must yield exactly
// the monitor a fresh windowed one fed the identical stream would be:
// same retained suffix, same Φ triangle, same eviction count, and the
// same behavior on subsequent appends. This is the regression pin for
// the serve-restore bug where an unbounded checkpoint restored under
// a daemon-wide default window stayed unbounded forever.
func TestApplyDefaultWindowMatchesFreshWindowed(t *testing.T) {
	const total, tail, W = 40, 5, 16
	space, vs := monitorFixtureVectors(total + tail)

	unbounded := NewMonitor(space, sched(total+tail), nil, PessimisticUnknown, DefaultDetectOptions())
	windowed := NewMonitorOpts(space, sched(total+tail), MonitorOptions{
		Detect: DefaultDetectOptions(), Window: W,
	})
	for _, v := range vs[:total] {
		if _, _, err := unbounded.Append(v); err != nil {
			t.Fatal(err)
		}
		if _, _, err := windowed.Append(v); err != nil {
			t.Fatal(err)
		}
	}

	st := unbounded.State()
	st.ApplyDefaultWindow(W)
	if st.Window != W || len(st.Vectors) != W {
		t.Fatalf("trimmed state: window %d, %d vectors, want %d/%d", st.Window, len(st.Vectors), W, W)
	}
	rest, err := RestoreMonitor(st)
	if err != nil {
		t.Fatalf("restore trimmed state: %v", err)
	}
	// Both monitors keep evicting as the stream continues.
	for _, v := range vs[total:] {
		if _, _, err := rest.Append(v); err != nil {
			t.Fatal(err)
		}
		if _, _, err := windowed.Append(v); err != nil {
			t.Fatal(err)
		}
	}

	sa, sb := windowed.Snapshot(), rest.Snapshot()
	if sb.Window != W || sb.History != W {
		t.Fatalf("restored snapshot = %+v, want window/history %d", sb, W)
	}
	if sa.Evictions != sb.Evictions || sa.Events != sb.Events || sa.LastEvent != sb.LastEvent {
		t.Fatalf("windowed vs restored snapshots diverge: %+v vs %+v", sa, sb)
	}
	a, b := windowed.Matrix(), rest.Matrix()
	if a.N != b.N {
		t.Fatalf("matrix N %d != %d", a.N, b.N)
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("cell (%d,%d): %v != %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
	ta, ca := windowed.LiveThreshold()
	tb, cb := rest.LiveThreshold()
	if ta != tb || !reflect.DeepEqual(ca, cb) {
		t.Fatalf("live clusters diverge: %v/%v vs %v/%v", ta, ca, tb, cb)
	}

	// No-ops: an already-windowed state, a zero default, and a history
	// shorter than the bound must all pass through untouched.
	already := windowed.State()
	evBefore, n := already.Evictions, len(already.Vectors)
	already.ApplyDefaultWindow(8)
	if already.Window != W || len(already.Vectors) != n || already.Evictions != evBefore {
		t.Fatalf("windowed state mutated by ApplyDefaultWindow: %+v", already)
	}
	raw := unbounded.State()
	raw.ApplyDefaultWindow(0)
	if raw.Window != 0 || len(raw.Vectors) != total {
		t.Fatalf("zero default mutated state: window %d, %d vectors", raw.Window, len(raw.Vectors))
	}
	short := unbounded.State()
	short.ApplyDefaultWindow(total + 100)
	if short.Window != total+100 || len(short.Vectors) != total || short.Evictions != 0 {
		t.Fatalf("short history trimmed: window %d, %d vectors, %d evictions",
			short.Window, len(short.Vectors), short.Evictions)
	}
}

func BenchmarkMonitorAppend(b *testing.B) {
	space, vs := monitorFixtureVectors(2)
	mon := NewMonitor(space, sched(1<<30), nil, PessimisticUnknown, DefaultDetectOptions())
	mon.Append(vs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := space.NewVector(timeline.Epoch(i + 10))
		for n := 0; n < 200; n++ {
			v.Set(n, "A")
		}
		mon.Append(v)
	}
}
