package obs

import (
	"runtime"
	"slices"
	"testing"
)

// TestRing checks the ring against a slice model: after n pushes it
// holds the last min(n, size) values oldest first and has evicted the
// rest; Reset empties it without forgetting the evictions; and storage
// grows with use instead of being allocated up front.
func TestRing(t *testing.T) {
	for size := 1; size <= 5; size++ {
		for n := 0; n <= 3*size+1; n++ {
			r := NewRing[int](size)
			var model []int
			for i := 0; i < n; i++ {
				r.Push(i)
				model = append(model, i)
			}
			evicted := max(0, n-size)
			want := model[evicted:]
			if got := r.Items(); !slices.Equal(got, want) {
				t.Fatalf("size %d, %d pushes: items %v, want %v", size, n, got, want)
			}
			if r.Len() != len(want) || r.Evicted() != uint64(evicted) {
				t.Fatalf("size %d, %d pushes: len %d evicted %d, want %d and %d",
					size, n, r.Len(), r.Evicted(), len(want), evicted)
			}

			r.Reset()
			if r.Len() != 0 || len(r.Items()) != 0 || r.Evicted() != uint64(evicted) {
				t.Fatalf("size %d, %d pushes: after Reset len %d items %v evicted %d, want empty and %d",
					size, n, r.Len(), r.Items(), r.Evicted(), evicted)
			}
			r.Push(100)
			r.Push(101)
			want = []int{100, 101}[max(0, 2-size):]
			if got := r.Items(); !slices.Equal(got, want) ||
				r.Evicted() != uint64(evicted+max(0, 2-size)) {
				t.Fatalf("size %d, %d pushes: after Reset and two pushes items %v evicted %d, want %v and %d",
					size, n, got, r.Evicted(), want, evicted+max(0, 2-size))
			}
		}
	}

	r := NewRing[int](0)
	r.Push(1)
	r.Push(2)
	if got := r.Items(); !slices.Equal(got, []int{2}) || r.Evicted() != 1 {
		t.Fatalf("NewRing(0): items %v evicted %d, want [2] and 1", got, r.Evicted())
	}

	// Storage grows with use: a trace-sized ring holding one span must
	// not pay for its 65,536 slots up front.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewRing[TraceRecord](1 << 16)
	tr.Push(TraceRecord{ID: 1, Name: "span"})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Fatalf("one push into a 1<<16 ring allocated %d B, want under 4 KiB", got)
	}
}
