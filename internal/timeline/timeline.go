// Package timeline models measurement time: fixed-cadence epochs, the
// mapping between epochs and wall-clock timestamps, and bookkeeping for
// collection gaps (the paper's B-Root dataset has a five-month outage that
// must survive the whole pipeline as "no data", not as zeros).
package timeline

import (
	"fmt"
	"time"
)

// Epoch is an index into a Schedule: observation 0, 1, 2, ...
type Epoch int

// Schedule maps epochs to timestamps at a fixed cadence.
type Schedule struct {
	Start    time.Time
	Interval time.Duration
	N        int
}

// NewSchedule builds a schedule of n epochs starting at start with the
// given interval. It panics on non-positive n or interval, which would
// indicate a scenario construction bug.
func NewSchedule(start time.Time, interval time.Duration, n int) Schedule {
	if n <= 0 || interval <= 0 {
		panic(fmt.Sprintf("timeline: invalid schedule n=%d interval=%v", n, interval))
	}
	return Schedule{Start: start, Interval: interval, N: n}
}

// Time returns the timestamp of epoch e.
func (s Schedule) Time(e Epoch) time.Time {
	return s.Start.Add(time.Duration(e) * s.Interval)
}

// EpochAt returns the epoch covering t (the last epoch whose timestamp is
// <= t), and whether t falls inside the schedule at all.
func (s Schedule) EpochAt(t time.Time) (Epoch, bool) {
	if t.Before(s.Start) {
		return 0, false
	}
	e := Epoch(t.Sub(s.Start) / s.Interval)
	if int(e) >= s.N {
		return 0, false
	}
	return e, true
}

// EpochOn returns the first epoch on or after the date given as
// "2006-01-02". It panics on malformed dates or dates outside the
// schedule; scenarios use it for scripted event times that must exist.
func (s Schedule) EpochOn(date string) Epoch {
	t, err := time.Parse("2006-01-02", date)
	if err != nil {
		panic(fmt.Sprintf("timeline: bad date %q: %v", date, err))
	}
	for e := 0; e < s.N; e++ {
		if !s.Time(Epoch(e)).Before(t) {
			return Epoch(e)
		}
	}
	panic(fmt.Sprintf("timeline: date %s outside schedule", date))
}

// Gaps records epochs with no collected data at all (collection outages).
type Gaps struct {
	missing map[Epoch]bool
}

// NewGaps returns an empty gap set.
func NewGaps() *Gaps { return &Gaps{missing: make(map[Epoch]bool)} }

// MarkRange marks epochs [from, to) as missing.
func (g *Gaps) MarkRange(from, to Epoch) {
	for e := from; e < to; e++ {
		g.missing[e] = true
	}
}

// Mark marks a single epoch missing.
func (g *Gaps) Mark(e Epoch) { g.missing[e] = true }

// Missing reports whether epoch e is a collection gap.
func (g *Gaps) Missing(e Epoch) bool { return g != nil && g.missing[e] }

// Count returns the number of missing epochs.
func (g *Gaps) Count() int { return len(g.missing) }

// Range is a half-open epoch interval [From, To), used to name the spans
// that clustering discovers (routing modes) and that scenarios script.
type Range struct {
	From, To Epoch
}

// Contains reports whether e falls inside the range.
func (r Range) Contains(e Epoch) bool { return e >= r.From && e < r.To }

// Len returns the number of epochs in the range.
func (r Range) Len() int {
	if r.To <= r.From {
		return 0
	}
	return int(r.To - r.From)
}

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool {
	return r.From < o.To && o.From < r.To
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.From, r.To) }
