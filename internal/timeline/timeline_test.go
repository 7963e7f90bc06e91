package timeline

import (
	"testing"
	"time"
)

func mustDate(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(err)
	}
	return t
}

func TestScheduleTimes(t *testing.T) {
	s := NewSchedule(mustDate("2019-09-01"), 24*time.Hour, 30)
	if got := s.Time(0); !got.Equal(mustDate("2019-09-01")) {
		t.Fatalf("Time(0) = %v", got)
	}
	if got := s.Time(10); !got.Equal(mustDate("2019-09-11")) {
		t.Fatalf("Time(10) = %v", got)
	}
}

func TestEpochAt(t *testing.T) {
	s := NewSchedule(mustDate("2020-03-01"), 4*time.Minute, 100)
	e, ok := s.EpochAt(mustDate("2020-03-01").Add(9 * time.Minute))
	if !ok || e != 2 {
		t.Fatalf("EpochAt(+9m) = %d ok=%v, want 2", e, ok)
	}
	if _, ok := s.EpochAt(mustDate("2020-02-29")); ok {
		t.Fatal("EpochAt before start should fail")
	}
	if _, ok := s.EpochAt(mustDate("2020-03-02")); ok {
		t.Fatal("EpochAt after end should fail")
	}
}

func TestEpochOn(t *testing.T) {
	s := NewSchedule(mustDate("2024-08-01"), 24*time.Hour, 60)
	if e := s.EpochOn("2024-08-01"); e != 0 {
		t.Fatalf("EpochOn(start) = %d", e)
	}
	if e := s.EpochOn("2024-08-15"); e != 14 {
		t.Fatalf("EpochOn(+14d) = %d", e)
	}
}

func TestEpochOnPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EpochOn outside schedule did not panic")
		}
	}()
	NewSchedule(mustDate("2024-08-01"), 24*time.Hour, 10).EpochOn("2025-01-01")
}

func TestNewSchedulePanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSchedule with n=0 did not panic")
		}
	}()
	NewSchedule(time.Time{}, time.Hour, 0)
}

func TestGaps(t *testing.T) {
	g := NewGaps()
	g.MarkRange(5, 8)
	g.Mark(20)
	if g.Count() != 4 {
		t.Fatalf("Count = %d, want 4", g.Count())
	}
	for _, e := range []Epoch{5, 6, 7, 20} {
		if !g.Missing(e) {
			t.Errorf("epoch %d should be missing", e)
		}
	}
	if g.Missing(8) || g.Missing(4) {
		t.Error("boundary epochs wrongly missing")
	}
}

func TestNilGapsMissing(t *testing.T) {
	var g *Gaps
	if g.Missing(3) {
		t.Fatal("nil Gaps must report nothing missing")
	}
}

func TestRange(t *testing.T) {
	r := Range{From: 3, To: 7}
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(3) || r.Contains(7) || r.Contains(2) {
		t.Error("Contains boundaries wrong")
	}
	if !r.Overlaps(Range{From: 6, To: 10}) {
		t.Error("overlapping ranges not detected")
	}
	if r.Overlaps(Range{From: 7, To: 10}) {
		t.Error("adjacent ranges should not overlap")
	}
	if (Range{From: 5, To: 5}).Len() != 0 {
		t.Error("empty range length")
	}
	if r.String() != "[3,7)" {
		t.Errorf("String = %q", r.String())
	}
}
