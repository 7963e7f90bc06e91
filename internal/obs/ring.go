package obs

// Ring is a bounded FIFO: once it holds size items, each Push overwrites
// the oldest one and counts it as evicted. Storage grows with use up to
// the bound, so a large, rarely filled ring costs only what it holds. A
// Ring is not synchronized; its owner guards it with its own lock.
type Ring[T any] struct {
	buf     []T
	size    int
	head    int // index of the oldest item once the ring is full
	evicted uint64
}

// NewRing returns an empty ring holding at most size items (at least 1).
func NewRing[T any](size int) *Ring[T] {
	return &Ring[T]{size: max(size, 1)}
}

// Push adds v as the newest item, evicting the oldest when full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.size
	r.evicted++
}

// Items returns the held items, oldest first, in a new slice.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Len returns how many items the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Evicted returns how many items Push has overwritten since creation.
func (r *Ring[T]) Evicted() uint64 { return r.evicted }

// Reset empties the ring. The eviction count is kept.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.buf, r.head = r.buf[:0], 0
}
