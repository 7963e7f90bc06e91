package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// noisySeries builds a series where each epoch reassigns `churn` fraction
// of networks randomly, with scripted full shifts at the given epochs.
func noisySeries(t *testing.T, n, epochs int, churn float64, shifts map[int]string) *Series {
	t.Helper()
	r := rng.New(123)
	s := NewSpace(nets(n))
	base := make([]string, n)
	for i := range base {
		base[i] = "A"
	}
	var vs []*Vector
	for e := 0; e < epochs; e++ {
		if site, ok := shifts[e]; ok {
			// A scripted event: half the networks move to the new site.
			for i := 0; i < n/2; i++ {
				base[i] = site
			}
		}
		v := s.NewVector(timeline.Epoch(e))
		for i := 0; i < n; i++ {
			if r.Bool(churn) {
				v.Set(i, "B")
			} else {
				v.Set(i, base[i])
			}
		}
		vs = append(vs, v)
	}
	return NewSeries(s, sched(epochs), vs, nil)
}

func TestDetectChangesFindsScriptedEvent(t *testing.T) {
	ser := noisySeries(t, 200, 60, 0.02, map[int]string{30: "C"})
	events := DetectChanges(ser, nil, DefaultDetectOptions())
	if len(events) != 1 {
		t.Fatalf("events = %+v, want exactly one", events)
	}
	if events[0].At != 30 {
		t.Fatalf("event at epoch %d, want 30", events[0].At)
	}
	if events[0].Magnitude < 0.3 {
		t.Fatalf("magnitude %v too small for a half-network shift", events[0].Magnitude)
	}
}

func TestDetectChangesMatrixPanicsOnRowCount(t *testing.T) {
	ser := noisySeries(t, 20, 10, 0.02, nil)
	defer func() {
		if r := recover(); r != "core: matrix of 9 rows for a series of 10 vectors" {
			t.Fatalf("recovered %v", r)
		}
	}()
	DetectChangesMatrix(ser, NewSimMatrix(9), PessimisticUnknown, nil, DefaultDetectOptions())
}

func TestDetectChangesQuietSeries(t *testing.T) {
	ser := noisySeries(t, 200, 60, 0.02, nil)
	events := DetectChanges(ser, nil, DefaultDetectOptions())
	if len(events) != 0 {
		t.Fatalf("false positives on quiet series: %+v", events)
	}
}

func TestDetectChangesMultipleEvents(t *testing.T) {
	ser := noisySeries(t, 200, 90, 0.01, map[int]string{30: "C", 60: "D"})
	events := DetectChanges(ser, nil, DefaultDetectOptions())
	if len(events) != 2 {
		t.Fatalf("events = %+v, want two", events)
	}
	if events[0].At != 30 || events[1].At != 60 {
		t.Fatalf("events at %d and %d", events[0].At, events[1].At)
	}
}

func TestDetectChangesRespectsGaps(t *testing.T) {
	// Build a series where the routing changes across a collection gap;
	// no event should fire because the pair is not adjacent.
	s := NewSpace(nets(50))
	var vs []*Vector
	for e := 0; e < 40; e++ {
		if e >= 20 && e < 25 {
			continue // gap
		}
		v := s.NewVector(timeline.Epoch(e))
		site := "A"
		if e >= 25 {
			site = "B"
		}
		for i := 0; i < 50; i++ {
			v.Set(i, site)
		}
		vs = append(vs, v)
	}
	ser := NewSeries(s, sched(40), vs, nil)
	events := DetectChanges(ser, nil, DefaultDetectOptions())
	if len(events) != 0 {
		t.Fatalf("change across gap flagged as event: %+v", events)
	}
}

func TestDetectChangesThresholdSensitivity(t *testing.T) {
	// A small shift (5%) is caught at low MinDrop and missed at high.
	s := NewSpace(nets(200))
	var vs []*Vector
	for e := 0; e < 40; e++ {
		v := s.NewVector(timeline.Epoch(e))
		for i := 0; i < 200; i++ {
			site := "A"
			if e >= 20 && i < 10 {
				site = "B"
			}
			v.Set(i, site)
		}
		vs = append(vs, v)
	}
	ser := NewSeries(s, sched(40), vs, nil)

	low := DefaultDetectOptions()
	low.MinDrop = 0.03
	if events := DetectChanges(ser, nil, low); len(events) != 1 {
		t.Fatalf("sensitive detector missed 5%% shift: %+v", events)
	}
	high := DefaultDetectOptions()
	high.MinDrop = 0.10
	if events := DetectChanges(ser, nil, high); len(events) != 0 {
		t.Fatalf("coarse detector caught sub-threshold shift: %+v", events)
	}
}

// flappySeries builds the fixture for the cooldown table: five identical
// epochs establish the baseline, then every odd epoch ≥ 5 flips half the
// networks to B and every even epoch flips them back, so every adjacent
// pair from (4,5) on has Φ = 0.5 against a baseline of 1.0.
func flappySeries(n, epochs int) *Series {
	s := NewSpace(nets(n))
	var vs []*Vector
	for e := 0; e < epochs; e++ {
		v := s.NewVector(timeline.Epoch(e))
		for i := 0; i < n; i++ {
			site := "A"
			if e >= 5 && e%2 == 1 && i < n/2 {
				site = "B"
			}
			v.Set(i, site)
		}
		vs = append(vs, v)
	}
	return NewSeries(s, sched(epochs), vs, nil)
}

// TestDetectChangesCooldownSemantics pins the cooldown contract: after an
// event at epoch t, Cooldown: N suppresses detection for exactly epochs
// t+1 .. t+N and no further. A decrement on the event iteration itself
// (the historical off-by-one) shortens the window to N-1 and produces a
// different event set for every N ≥ 2.
func TestDetectChangesCooldownSemantics(t *testing.T) {
	ser := flappySeries(100, 13)
	opts := DetectOptions{Window: 30, MinDrop: 0.2, Mode: PessimisticUnknown}
	cases := []struct {
		cooldown int
		want     []timeline.Epoch
	}{
		{0, []timeline.Epoch{5, 6, 7, 8, 9, 10, 11, 12}},
		{1, []timeline.Epoch{5, 7, 9, 11}},
		{2, []timeline.Epoch{5, 8, 11}},
		{3, []timeline.Epoch{5, 9}},
	}
	for _, c := range cases {
		opts.Cooldown = c.cooldown
		events := DetectChanges(ser, nil, opts)
		var got []timeline.Epoch
		for _, ev := range events {
			got = append(got, ev.At)
		}
		if len(got) != len(c.want) {
			t.Errorf("cooldown %d: events at %v, want %v", c.cooldown, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("cooldown %d: events at %v, want %v", c.cooldown, got, c.want)
				break
			}
		}
	}
}

// refMedian is the pre-incremental baseline median: copy the window and
// insertion-sort it (stable, so equal values keep arrival order).
func refMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 9}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		d := newDetector(DetectOptions{Window: 8})
		for _, x := range c.in {
			d.push(x)
		}
		if got := d.median(); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestWindowMedianMatchesSortedCopy drives the detector's incrementally
// sorted window through long random streams — few distinct values, so
// equal values are common, plus signed zeros — with window evictions and
// gap resets, and checks the median after every push against the
// sort-a-copy reference, bit for bit, and that the window buffers stop
// growing once the window has first overflowed.
func TestWindowMedianMatchesSortedCopy(t *testing.T) {
	for _, window := range []int{1, 2, 3, 7, 30} {
		r := rng.New(uint64(window))
		d := newDetector(DetectOptions{Window: window})
		var ref []float64
		var warm [2]int // buffer capacities after the first eviction
		for step := 0; step < 2000; step++ {
			if r.Bool(0.01) {
				d.reset()
				ref = ref[:0]
				continue
			}
			x := float64(r.Intn(6)) / 4
			if x == 0 && r.Bool(0.5) {
				x = math.Copysign(0, -1)
			}
			d.push(x)
			ref = append(ref, x)
			evicted := len(ref) > window
			if evicted {
				ref = ref[1:]
			}
			got, want := d.median(), refMedian(ref)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window=%d step %d: median %v, reference %v over %v", window, step, got, want, ref)
			}
			if len(d.history) > window {
				t.Fatalf("window=%d step %d: history holds %d values", window, step, len(d.history))
			}
			caps := [2]int{cap(d.history), cap(d.sorted)}
			switch {
			case warm == [2]int{} && evicted:
				warm = caps
			case warm != [2]int{} && caps != warm:
				t.Fatalf("window=%d step %d: buffers grew after warm-up, cap %v then %v", window, step, warm, caps)
			}
		}
	}
}

// TestWindowSortedIsStableSortOfRing checks, after every push of a
// seeded stream, that the sorted window equals the stable sort of the
// ring read in arrival order from its oldest slot, bit for bit. The
// stream has many ties, and ties that the bits tell apart: signed zeros
// and NaNs with distinct payloads, which cmp.Compare orders first and
// counts equal.
func TestWindowSortedIsStableSortOfRing(t *testing.T) {
	values := []float64{
		0.25, 0.5, 0.5, 0.75, 1, 0, math.Copysign(0, -1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
		math.Float64frombits(0xfff8000000000003),
	}
	for _, window := range []int{1, 2, 3, 5, 8, 30} {
		r := rng.New(uint64(100 + window))
		d := newDetector(DetectOptions{Window: window})
		for step := 0; step < 3000; step++ {
			if r.Bool(0.005) {
				d.reset()
			}
			d.push(values[r.Intn(len(values))])
			ring := append(append([]float64(nil), d.history[d.head:]...), d.history[:d.head]...)
			want := slices.Clone(ring)
			slices.SortStableFunc(want, cmp.Compare)
			if len(d.sorted) != len(want) {
				t.Fatalf("window=%d step %d: sorted holds %d values, ring %d", window, step, len(d.sorted), len(want))
			}
			for k := range want {
				if math.Float64bits(d.sorted[k]) != math.Float64bits(want[k]) {
					t.Fatalf("window=%d step %d: sorted %v, stable sort of ring %v", window, step, d.sorted, want)
				}
			}
		}
	}
}
