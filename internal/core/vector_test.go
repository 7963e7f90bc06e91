package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fenrir/internal/timeline"
)

func nets(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "net" + string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	return out
}

func sched(n int) timeline.Schedule {
	return timeline.NewSchedule(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour, n)
}

func TestSpaceBasics(t *testing.T) {
	s := NewSpace([]string{"a", "b", "c"})
	if s.NumNetworks() != 3 {
		t.Fatalf("NumNetworks = %d", s.NumNetworks())
	}
	if s.NetworkIndex("b") != 1 || s.NetworkIndex("zz") != -1 {
		t.Error("NetworkIndex broken")
	}
	if s.Network(2) != "c" {
		t.Error("Network broken")
	}
	i := s.SiteIndex("LAX")
	if s.SiteIndex("LAX") != i {
		t.Error("SiteIndex not stable")
	}
	if s.SiteName(i) != "LAX" {
		t.Error("SiteName broken")
	}
	if s.NumSites() != 1 {
		t.Errorf("NumSites = %d", s.NumSites())
	}
}

// TestSpaceConcurrentIntern: the daemon interns site labels from
// concurrent ingest handlers while query handlers render them. Writers
// race to intern an overlapping set of new labels (enough to grow the
// table several times) while readers walk the alphabet; under -race
// nothing may conflict, and every label must get exactly one index.
func TestSpaceConcurrentIntern(t *testing.T) {
	const writers, readers, labels = 4, 4, 500
	space := NewSpace([]string{"n0"})
	seen := space.NewVector(0)
	seen.Set(0, "seed")
	name := func(l int) string { return fmt.Sprintf("site-%03d", l) }

	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < space.NumSites(); i++ {
					if space.SiteName(int32(i)) == "" {
						t.Errorf("site %d has no label", i)
						return
					}
				}
				if s, ok := seen.Site(0); !ok || s != "seed" {
					t.Errorf("Vector.Site = %q/%v, want seed", s, ok)
					return
				}
			}
		}()
	}
	got := make([][]int32, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx := make([]int32, labels)
			// Each writer starts at a different offset, so every label
			// is interned first by one writer and looked up by the rest.
			for k := 0; k < labels; k++ {
				l := (k + w*labels/writers) % labels
				idx[l] = space.SiteIndex(name(l))
			}
			got[w] = idx
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	if space.NumSites() != labels+1 {
		t.Fatalf("NumSites = %d, want %d", space.NumSites(), labels+1)
	}
	owner := make(map[int32]string)
	for l := 0; l < labels; l++ {
		i := got[0][l]
		for w := 1; w < writers; w++ {
			if got[w][l] != i {
				t.Fatalf("%s: writer %d got index %d, writer 0 got %d", name(l), w, got[w][l], i)
			}
		}
		if prev, dup := owner[i]; dup {
			t.Fatalf("index %d given to both %s and %s", i, prev, name(l))
		}
		owner[i] = name(l)
		if space.SiteName(i) != name(l) || space.SiteIndex(name(l)) != i {
			t.Fatalf("%s: index %d does not round-trip", name(l), i)
		}
	}
}

func TestSpaceDuplicateNetworkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate network accepted")
		}
	}()
	NewSpace([]string{"a", "a"})
}

func TestVectorSetGet(t *testing.T) {
	s := NewSpace(nets(4))
	v := s.NewVector(0)
	if v.KnownCount() != 0 {
		t.Fatal("fresh vector not all unknown")
	}
	v.Set(0, "LAX")
	v.Set(1, "AMS")
	v.Set(2, "LAX")
	if got, ok := v.Site(0); !ok || got != "LAX" {
		t.Fatalf("Site(0) = %q ok=%v", got, ok)
	}
	if _, ok := v.Site(3); ok {
		t.Fatal("unset network has a site")
	}
	v.SetUnknown(0)
	if v.KnownCount() != 2 {
		t.Fatalf("KnownCount = %d", v.KnownCount())
	}
}

func TestAggregate(t *testing.T) {
	s := NewSpace(nets(5))
	v := s.NewVector(0)
	v.Set(0, "LAX")
	v.Set(1, "LAX")
	v.Set(2, "AMS")
	agg := v.Aggregate()
	if agg["LAX"] != 2 || agg["AMS"] != 1 {
		t.Fatalf("Aggregate = %v", agg)
	}
	w := []float64{10, 1, 1, 1, 1}
	aggW := v.AggregateWeighted(w)
	if aggW["LAX"] != 11 || aggW["AMS"] != 1 {
		t.Fatalf("AggregateWeighted = %v", aggW)
	}
}

func TestOneHot(t *testing.T) {
	s := NewSpace(nets(3))
	v := s.NewVector(0)
	v.Set(0, "A")
	v.Set(2, "B")
	m := v.OneHot()
	if len(m) != 3 || len(m[0]) != 2 {
		t.Fatalf("OneHot dims %dx%d", len(m), len(m[0]))
	}
	// Row sums: 1 for known, 0 for unknown — the D* definition.
	sums := []int{0, 0, 0}
	for i, row := range m {
		for _, c := range row {
			sums[i] += int(c)
		}
	}
	if sums[0] != 1 || sums[1] != 0 || sums[2] != 1 {
		t.Fatalf("row sums = %v", sums)
	}
}

func TestClone(t *testing.T) {
	s := NewSpace(nets(2))
	v := s.NewVector(3)
	v.Set(0, "X")
	c := v.Clone()
	c.Set(1, "Y")
	if _, ok := v.Site(1); ok {
		t.Fatal("Clone shares storage")
	}
	if c.T != 3 {
		t.Fatal("Clone lost epoch")
	}
}

func TestSeriesSortsAndLooksUp(t *testing.T) {
	s := NewSpace(nets(2))
	v2 := s.NewVector(2)
	v0 := s.NewVector(0)
	ser := NewSeries(s, sched(5), []*Vector{v2, v0}, nil)
	if ser.Len() != 2 || ser.Vectors[0].T != 0 || ser.Vectors[1].T != 2 {
		t.Fatal("series not sorted")
	}
	if ser.At(2) != v2 || ser.At(1) != nil {
		t.Fatal("At broken")
	}
}

func TestSeriesDuplicateEpochPanics(t *testing.T) {
	s := NewSpace(nets(2))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate epoch accepted")
		}
	}()
	NewSeries(s, sched(5), []*Vector{s.NewVector(1), s.NewVector(1)}, nil)
}

func TestSeriesForeignSpacePanics(t *testing.T) {
	s1 := NewSpace(nets(2))
	s2 := NewSpace(nets(2))
	defer func() {
		if recover() == nil {
			t.Fatal("foreign-space vector accepted")
		}
	}()
	NewSeries(s1, sched(5), []*Vector{s2.NewVector(0)}, nil)
}
