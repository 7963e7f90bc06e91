package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fenrir/internal/timeline"
)

// assertSamePartition fails unless the live and batch partitions are
// byte-identical: the exact threshold float and the exact cluster lists.
func assertSamePartition(t *testing.T, where string, liveT float64, liveC [][]int, batchT float64, batchC [][]int) {
	t.Helper()
	if liveT != batchT {
		t.Fatalf("%s: live threshold %.17g != batch %.17g", where, liveT, batchT)
	}
	if !reflect.DeepEqual(liveC, batchC) {
		t.Fatalf("%s: live clusters %v != batch %v", where, liveC, batchC)
	}
}

// TestLiveModesMatchBatchEveryEpoch is the tentpole equivalence proof
// for the growing (unbounded) monitor: at every epoch, the online
// engine's (threshold, clusters) must be byte-identical to batch
// ClusterAdaptive over the materialized matrix. It also pins the cache
// contract both ways: the first query after each append re-clusters
// exactly once (a stale cache would fail equivalence), and a repeat
// query with no append in between re-clusters nothing.
func TestLiveModesMatchBatchEveryEpoch(t *testing.T) {
	for _, linkage := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		for _, seed := range []uint64{7, 19} {
			space, vs := gapSeries(80, seed)
			opts := DefaultAdaptiveOptions()
			opts.Linkage = linkage
			mon := NewMonitorOpts(space, sched(1<<20), MonitorOptions{
				Mode: PessimisticUnknown, Detect: DefaultDetectOptions(), Adaptive: opts,
			})
			for k, v := range vs {
				if _, _, err := mon.Append(v); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("linkage=%v seed=%d epoch=%d", linkage, seed, k)
				before := mon.engine.rebuilds
				liveT, liveC := mon.LiveThreshold()
				if got := mon.engine.rebuilds - before; got != 1 {
					t.Fatalf("%s: post-append query rebuilt %d times, want 1", where, got)
				}
				batchT, batchC := ClusterAdaptive(mon.Matrix(), opts)
				assertSamePartition(t, where, liveT, liveC, batchT, batchC)

				// The full ModesResult must match DiscoverModes field
				// for field (modulo the intentionally nil Matrix), and
				// this second query must be served from the cache.
				live := mon.LiveModes()
				if got := mon.engine.rebuilds - before; got != 1 {
					t.Fatalf("%s: repeat query without append rebuilt (%d rebuilds)", where, got)
				}
				batch := mon.Modes(opts)
				if live.Threshold != batch.Threshold || !reflect.DeepEqual(live.Modes, batch.Modes) {
					t.Fatalf("%s: LiveModes diverged from Modes: %+v vs %+v", where, live, batch)
				}
			}
		}
	}
}

// TestWindowedMonitorMatchesFreshSuffix is the window-eviction
// equivalence sweep: a monitor with Window=W must, at every epoch,
// report the same change event (provenance included — centroid memory
// must survive evictions exactly as a suffix-only monitor's would) and
// the same live (threshold, clusters) as a fresh monitor fed only the
// retained suffix, and both must equal batch ClusterAdaptive over the
// suffix matrix computed serially and in parallel. Evictions happen on
// every post-warmup append, so trims land mid-cooldown whenever an
// event fired within Cooldown epochs of the window edge — gapSeries
// fixtures fire plenty. The second mode pair detects under a different
// unknown handling than the matrix, so the eviction replay must take
// its Φ from the detection kernel, not the cached triangle.
func TestWindowedMonitorMatchesFreshSuffix(t *testing.T) {
	const W = 24
	for _, seed := range []uint64{41, 42} {
		for _, mp := range []struct{ sim, det UnknownMode }{
			{PessimisticUnknown, PessimisticUnknown},
			{KnownOnly, PessimisticUnknown},
		} {
			windowedMatchesFreshSuffix(t, W, seed, mp.sim, mp.det)
		}
	}
}

func windowedMatchesFreshSuffix(t *testing.T, W int, seed uint64, simMode, detMode UnknownMode) {
	t.Helper()
	space, vs := gapSeries(96, seed)
	detect := DetectOptions{Window: 12, MinDrop: 0.04, Mode: detMode, Cooldown: 3}
	win := NewMonitorOpts(space, sched(1<<20), MonitorOptions{
		Mode: simMode, Detect: detect, Window: W,
	})
	events := 0
	for k, v := range vs {
		ev, ok, err := win.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh monitor over exactly the retained suffix.
		lo := 0
		if k+1 > W {
			lo = k + 1 - W
		}
		fresh := NewMonitorOpts(space, sched(1<<20), MonitorOptions{
			Mode: simMode, Detect: detect,
		})
		var fev ChangeEvent
		var fok bool
		for _, fv := range vs[lo : k+1] {
			if fev, fok, err = fresh.Append(fv); err != nil {
				t.Fatal(err)
			}
		}
		if ok != fok || !reflect.DeepEqual(ev, fev) {
			t.Fatalf("seed=%d sim=%v det=%v epoch %d: windowed event (%v %+v) != fresh-suffix event (%v %+v)",
				seed, simMode, detMode, k, ok, ev, fok, fev)
		}
		if ok {
			events++
		}
		if win.Len() != k+1-lo {
			t.Fatalf("seed=%d epoch %d: windowed history %d, want %d", seed, k, win.Len(), k+1-lo)
		}

		liveT, liveC := win.LiveThreshold()
		freshT, freshC := fresh.LiveThreshold()
		assertSamePartition(t, "windowed-vs-fresh", liveT, liveC, freshT, freshC)

		// Batch over the suffix series at several parallelism levels.
		suffix := NewSeries(space, sched(1<<20), vs[lo:k+1], nil)
		for _, p := range []int{1, 4, 3} {
			mat := SimilarityMatrixParallel(suffix, nil, simMode, MatrixOptions{Parallelism: p})
			batchT, batchC := ClusterAdaptive(mat, DefaultAdaptiveOptions())
			assertSamePartition(t, "windowed-vs-batch", liveT, liveC, batchT, batchC)
		}
	}
	if events == 0 {
		t.Fatalf("seed=%d: fixture fired no events — eviction equivalence is vacuous", seed)
	}
	if snap := win.Snapshot(); snap.Evictions == 0 || snap.Window != W {
		t.Fatalf("seed=%d: snapshot window=%d evictions=%d — window never engaged",
			seed, snap.Window, snap.Evictions)
	}
}

// TestWindowedMonitorHeapBounded is the acceptance-criteria memory
// proof: 10k epochs through a Window=64 monitor must leave the heap
// O(W·N), where the pre-window monitor held the full O(T²) triangle
// (≈400 MB of float64 at T=10k) plus every vector. Structural caps
// pin the ring behaviour deterministically; the memstats delta is the
// fails-on-old tripwire.
func TestWindowedMonitorHeapBounded(t *testing.T) {
	const (
		W      = 64
		epochs = 10_000
		nNets  = 64
	)
	space := NewSpace(nets(nNets))
	mon := NewMonitorOpts(space, sched(1<<20), MonitorOptions{
		Mode: PessimisticUnknown, Detect: DefaultDetectOptions(), Window: W,
	})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sites := []string{"A", "B", "C"}
	for e := 0; e < epochs; e++ {
		v := space.NewVector(timeline.Epoch(e))
		base := sites[(e/100)%len(sites)]
		for i := 0; i < nNets; i++ {
			if (i+e)%17 != 0 {
				v.Set(i, base)
			}
		}
		if _, _, err := mon.Append(v); err != nil {
			t.Fatal(err)
		}
		if e%512 == 0 {
			mon.LiveThreshold() // keep the engine live while bounded
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if mon.Len() != W {
		t.Fatalf("history = %d, want %d", mon.Len(), W)
	}
	// Ring invariants: the backing arrays of the advanced slices stay
	// within a small constant factor of the window, independent of the
	// 10k-epoch stream length.
	if c := cap(mon.vectors); c > 8*W {
		t.Fatalf("vectors backing capacity %d grew beyond ring bound %d", c, 8*W)
	}
	if c := cap(mon.sim); c > 8*W {
		t.Fatalf("sim backing capacity %d grew beyond ring bound %d", c, 8*W)
	}
	for i, row := range mon.sim {
		if len(row) != i {
			t.Fatalf("sim row %d has %d entries, want %d", i, len(row), i)
		}
		if cap(row) > 8*W {
			t.Fatalf("sim row %d capacity %d grew beyond ring bound %d", i, cap(row), 8*W)
		}
	}
	// The old unbounded monitor retains ≈ T²/2 float64 Φ values plus
	// 10k vectors: far beyond this ceiling. The bounded run's live
	// heap delta is a few hundred KB.
	const heapCeiling = 32 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > heapCeiling {
		t.Fatalf("heap grew %d bytes over %d epochs; window bound demands < %d", grew, epochs, heapCeiling)
	}
}

// TestWindowedAppendAllocsIndependentOfWindow pins the cost shape of
// the eviction replay: every steady windowed append evicts one row and
// replays the detector over the retained window, and that replay must
// allocate nothing per replayed step — no Explanation for the past
// events it re-decides, no baseline copy per median. Allocations per
// append are then the same at W=64 and W=512. The windows hold the
// fixture's regime changes, so the replay re-decides events; the
// appended vectors repeat the newest one, so no live event fires.
func TestWindowedAppendAllocsIndependentOfWindow(t *testing.T) {
	allocs := func(W int) float64 {
		s := randomSeries(t, W, 64, 0.2, 71)
		mon := NewMonitorOpts(s.Space, sched(1<<20), MonitorOptions{
			Mode: PessimisticUnknown, Detect: DefaultDetectOptions(), Window: W,
		})
		for _, v := range s.Vectors {
			if _, _, err := mon.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		if snap := mon.Snapshot(); snap.Events == 0 {
			t.Fatalf("W=%d: fixture fired no events — the replay re-decides nothing", W)
		}
		last, next := s.Vectors[W-1], timeline.Epoch(W)
		return testing.AllocsPerRun(40, func() {
			v := last.Clone()
			v.T = next
			next++
			if _, changed, err := mon.Append(v); err != nil || changed {
				t.Fatalf("steady append: changed=%v err=%v", changed, err)
			}
		})
	}
	small, large := allocs(64), allocs(512)
	if small != large {
		t.Fatalf("allocations per windowed append: %v at W=64, %v at W=512 — the eviction replay allocates per replayed step", small, large)
	}
}

// refTrimBefore is the pre-ring TrimBefore, transcribed verbatim: it
// reallocates and copies the whole retained triangle. The regression
// test pins the ring implementation bit-identical to it.
func refTrimBefore(m *Monitor, epoch timeline.Epoch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cut := 0
	for cut < len(m.vectors) && m.vectors[cut].T < epoch {
		cut++
	}
	if cut == 0 {
		return
	}
	m.vectors = append([]*Vector(nil), m.vectors[cut:]...)
	m.packed = append([]packedRow(nil), m.packed[cut:]...)
	sim := make([][]float64, len(m.vectors))
	for i := range m.vectors {
		old := m.sim[i+cut]
		sim[i] = append([]float64(nil), old[cut:]...)
	}
	m.sim = sim
	m.evictions += uint64(cut)
	m.rebuildDetectorLocked()
	m.engine.invalidate()
}

// TestTrimBeforeRingBitIdentical drives two identical monitors through
// interleaved appends and trims — the ring TrimBefore on one, the old
// copy-everything implementation on the other — and demands bit-equal
// state, matrices, live partitions, and future events at every step.
// One trim lands mid-cooldown by construction (immediately after an
// event fires), pinning cooldown/centroid semantics across eviction.
func TestTrimBeforeRingBitIdentical(t *testing.T) {
	space, vs := gapSeries(120, 43)
	detect := DetectOptions{Window: 10, MinDrop: 0.04, Mode: PessimisticUnknown, Cooldown: 4}
	mk := func() *Monitor {
		return NewMonitorOpts(space, sched(1<<20), MonitorOptions{Mode: PessimisticUnknown, Detect: detect})
	}
	ring, ref := mk(), mk()

	compare := func(step string) {
		t.Helper()
		rs, fs := ring.State(), ref.State()
		if !reflect.DeepEqual(rs.Vectors, fs.Vectors) || !reflect.DeepEqual(rs.Sim, fs.Sim) {
			t.Fatalf("%s: ring state diverged from reference", step)
		}
		if rs.Evictions != fs.Evictions {
			t.Fatalf("%s: evictions %d != reference %d", step, rs.Evictions, fs.Evictions)
		}
		if !reflect.DeepEqual(ring.Matrix(), ref.Matrix()) {
			t.Fatalf("%s: ring matrix diverged from reference", step)
		}
		rT, rC := ring.LiveThreshold()
		fT, fC := ref.LiveThreshold()
		assertSamePartition(t, step, rT, rC, fT, fC)
	}

	trimmed := 0
	sinceEvent := -1
	for k, v := range vs {
		ev1, ok1, err1 := ring.Append(v)
		ev2, ok2, err2 := ref.Append(v)
		if (err1 == nil) != (err2 == nil) || ok1 != ok2 || !reflect.DeepEqual(ev1, ev2) {
			t.Fatalf("append %d: ring (%v,%v,%v) != reference (%v,%v,%v)", k, ev1, ok1, err1, ev2, ok2, err2)
		}
		if ok1 {
			sinceEvent = 0
		} else if sinceEvent >= 0 {
			sinceEvent++
		}
		// Trim mid-cooldown right after an event, and periodically
		// otherwise (1-epoch trims: the old implementation's worst case).
		if (sinceEvent == 1 && k > 20) || k%13 == 0 {
			cutAt := ring.State().Vectors[0].T + 1
			if sinceEvent == 1 {
				cutAt = v.T - timeline.Epoch(8)
			}
			ring.TrimBefore(cutAt)
			refTrimBefore(ref, cutAt)
			trimmed++
			compare(fmt.Sprintf("trim@%d", v.T))
		}
	}
	compare("final")
	if trimmed < 5 {
		t.Fatalf("only %d trims exercised — fixture too quiet", trimmed)
	}
}

// TestMonitorWindowStateRoundTrip pins State/RestoreMonitor for the new
// fields: window, evictions, and the persisted engine dendrogram. The
// restored monitor must answer LiveModes identically without a rebuild
// (the persisted merges are swept directly), and must keep evicting and
// re-clustering in lockstep with the original afterwards.
func TestMonitorWindowStateRoundTrip(t *testing.T) {
	const W = 16
	space, vs := gapSeries(64, 47)
	mkOpts := MonitorOptions{Mode: PessimisticUnknown, Detect: DefaultDetectOptions(), Window: W}
	mon := NewMonitorOpts(space, sched(1<<20), mkOpts)
	for _, v := range vs[:40] {
		if _, _, err := mon.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	wantT, wantC := mon.LiveThreshold() // builds the engine pre-export

	st := mon.State()
	if st.Window != W || !st.EngineValid {
		t.Fatalf("state window=%d engineValid=%v, want %d/true", st.Window, st.EngineValid, W)
	}
	rest, err := RestoreMonitor(st)
	if err != nil {
		t.Fatal(err)
	}
	gotT, gotC := rest.LiveThreshold()
	assertSamePartition(t, "restored", gotT, gotC, wantT, wantC)
	if rest.engine.rebuilds != 0 {
		t.Fatalf("restored engine rebuilt %d times answering from persisted merges", rest.engine.rebuilds)
	}
	if rest.Window() != W || rest.Snapshot().Evictions != mon.Snapshot().Evictions {
		t.Fatalf("restored window/evictions diverged")
	}

	for _, v := range vs[40:] {
		ev1, ok1, err1 := mon.Append(v)
		ev2, ok2, err2 := rest.Append(v)
		if (err1 == nil) != (err2 == nil) || ok1 != ok2 || !reflect.DeepEqual(ev1, ev2) {
			t.Fatalf("post-restore append at %d diverged", v.T)
		}
		aT, aC := mon.LiveThreshold()
		bT, bC := rest.LiveThreshold()
		assertSamePartition(t, "post-restore", aT, aC, bT, bC)
	}
}

// BenchmarkMonitorAppendWindowed measures steady-state windowed ingest
// — eviction, Φ row, detection — with a live mode query per append,
// the serve-path /mode workload.
func BenchmarkMonitorAppendWindowed(b *testing.B) {
	const W = 128
	space, vs := monitorFixtureVectors(1 << 14)
	mon := NewMonitorOpts(space, sched(1<<20), MonitorOptions{
		Mode: PessimisticUnknown, Detect: DefaultDetectOptions(), Window: W,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vs[i%len(vs)]
		if i >= len(vs) {
			v = v.Clone()
			v.T = timeline.Epoch(i)
		}
		if _, _, err := mon.Append(v); err != nil {
			b.Fatal(err)
		}
		mon.LiveThreshold()
	}
}
