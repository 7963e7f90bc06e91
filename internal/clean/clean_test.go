package clean

import (
	"fmt"
	"testing"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

func space(n int) *core.Space {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "n" + string(rune('A'+i))
	}
	return core.NewSpace(ids)
}

func sched(n int) timeline.Schedule {
	return timeline.NewSchedule(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour, n)
}

func seriesOf(s *core.Space, n int, rows map[int][]string) *core.Series {
	// rows maps network index -> per-epoch site label ("" = unknown).
	epochs := 0
	for _, r := range rows {
		if len(r) > epochs {
			epochs = len(r)
		}
	}
	var vs []*core.Vector
	for e := 0; e < epochs; e++ {
		v := s.NewVector(timeline.Epoch(e))
		for netIdx, r := range rows {
			if e < len(r) && r[e] != "" {
				v.Set(netIdx, r[e])
			}
		}
		vs = append(vs, v)
	}
	return core.NewSeries(s, sched(epochs), vs, nil)
}

func siteAt(s *core.Series, e timeline.Epoch, n int) string {
	v := s.At(e)
	if v == nil {
		return "<no vector>"
	}
	site, ok := v.Site(n)
	if !ok {
		return ""
	}
	return site
}

func TestQuarantine(t *testing.T) {
	sp := space(2)
	valid := func(site string) bool { return site == "LAX" || site == "AMS" }
	const total = `fenrir_quarantined_total{reason="invalid-site"}`
	counters := func(reg *obs.Registry) map[string]int64 {
		return reg.Read().Counters
	}

	tidy := seriesOf(sp, 2, map[int][]string{0: {"LAX", "AMS"}, 1: {"AMS", ""}})
	reg := obs.NewRegistry()
	if _, rep := Quarantine(tidy, valid, reg); rep.Total != 0 || len(rep.ByLabel) != 0 {
		t.Fatalf("valid series quarantined %d cells: %v", rep.Total, rep.ByLabel)
	}
	if got, ok := counters(reg)[total]; !ok || got != 0 {
		t.Fatalf("%s = %d (present %v), want an explicit 0", total, got, ok)
	}

	ser := seriesOf(sp, 2, map[int][]string{
		0: {"LAX", "BOGUS", "BOGUS"},
		1: {"AMS", "AMS", "XX"},
	})
	reg = obs.NewRegistry()
	out, rep := Quarantine(ser, valid, reg)
	if siteAt(out, 1, 0) != "" || siteAt(out, 2, 0) != "" || siteAt(out, 2, 1) != "" {
		t.Error("bogus observation survived")
	}
	if siteAt(out, 0, 0) != "LAX" || siteAt(out, 0, 1) != "AMS" || siteAt(out, 1, 1) != "AMS" {
		t.Error("valid observations damaged")
	}
	// Original untouched.
	if siteAt(ser, 1, 0) != "BOGUS" || siteAt(ser, 2, 1) != "XX" {
		t.Error("cleaner mutated its input")
	}
	if rep.Total != 3 || rep.ByLabel["BOGUS"] != 2 || rep.ByLabel["XX"] != 1 || len(rep.ByLabel) != 2 {
		t.Fatalf("report = %+v, want BOGUS:2 XX:1 total 3", rep)
	}
	if got := counters(reg)[total]; got != int64(rep.Total) {
		t.Fatalf("%s = %d, want %d", total, got, rep.Total)
	}

	// A nil registry records nothing but still cleans and reports.
	out, rep = Quarantine(ser, valid, nil)
	if rep.Total != 3 || siteAt(out, 1, 0) != "" || siteAt(out, 0, 0) != "LAX" {
		t.Fatalf("nil registry: total %d, cells %q %q", rep.Total, siteAt(out, 1, 0), siteAt(out, 0, 0))
	}
}

func TestMicroCatchments(t *testing.T) {
	sp := space(10)
	rows := make(map[int][]string)
	for i := 0; i < 9; i++ {
		rows[i] = []string{"BIG", "BIG", "BIG"}
	}
	rows[9] = []string{"TINY", "TINY", "TINY"}
	ser := seriesOf(sp, 10, rows)
	micro := MicroCatchments(ser, 0.2)
	if len(micro) != 1 || micro[0] != "TINY" {
		t.Fatalf("micro = %v", micro)
	}
	if got := MicroCatchments(ser, 0.05); len(got) != 0 {
		t.Fatalf("low threshold flagged %v", got)
	}
}

func TestMicroCatchmentsIgnoresErrOther(t *testing.T) {
	sp := space(10)
	rows := make(map[int][]string)
	for i := 0; i < 9; i++ {
		rows[i] = []string{"BIG"}
	}
	rows[9] = []string{core.SiteError}
	ser := seriesOf(sp, 10, rows)
	if got := MicroCatchments(ser, 0.5); len(got) != 0 {
		t.Fatalf("err flagged as micro-catchment: %v", got)
	}
}

// TestMicroCatchmentsAllUnknownEpochs pins the denominator: an epoch with
// no known assignment (a collection outage or a full blackout) carries no
// information about any site's share and must not dilute the mean. The
// historical bug divided by the series length, so two unknown epochs out
// of three deflated every share by 3x and flagged healthy sites as
// micro-catchments.
func TestMicroCatchmentsAllUnknownEpochs(t *testing.T) {
	sp := space(10)
	rows := make(map[int][]string)
	for i := 0; i < 9; i++ {
		rows[i] = []string{"BIG", "", ""}
	}
	rows[9] = []string{"TINY", "", ""}
	ser := seriesOf(sp, 10, rows)
	// TINY's share in the one contributing epoch is 0.10; the buggy mean
	// over all three epochs was 0.033.
	if got := MicroCatchments(ser, 0.05); len(got) != 0 {
		t.Fatalf("unknown epochs diluted shares: flagged %v", got)
	}
	if got := MicroCatchments(ser, 0.2); len(got) != 1 || got[0] != "TINY" {
		t.Fatalf("contributing-epoch mean broken: %v", got)
	}
}

func TestMicroCatchmentsAllEpochsUnknown(t *testing.T) {
	sp := space(3)
	ser := seriesOf(sp, 3, map[int][]string{0: {"", "", ""}, 1: {"", "", ""}, 2: {"", "", ""}})
	if got := MicroCatchments(ser, 0.5); got != nil {
		t.Fatalf("all-unknown series flagged %v, want nil", got)
	}
}

func TestSuppressSites(t *testing.T) {
	sp := space(3)
	ser := seriesOf(sp, 3, map[int][]string{
		0: {"BIG"}, 1: {"TINY"}, 2: {""},
	})
	out := SuppressSites(ser, []string{"TINY"})
	if siteAt(out, 0, 1) != core.SiteOther {
		t.Errorf("suppressed site = %q, want other", siteAt(out, 0, 1))
	}
	if siteAt(out, 0, 0) != "BIG" || siteAt(out, 0, 2) != "" {
		t.Error("unrelated assignments damaged")
	}
}

func TestInterpolateSplitRun(t *testing.T) {
	// Known A at epoch 0, unknown 1-4, known B at 5: first half (1,2)
	// copies A, second half (3,4) copies B.
	sp := space(1)
	ser := seriesOf(sp, 1, map[int][]string{
		0: {"A", "", "", "", "", "B"},
	})
	out := Interpolate(ser, DefaultInterpolateOptions())
	want := []string{"A", "A", "A", "B", "B", "B"}
	for e, w := range want {
		if got := siteAt(out, timeline.Epoch(e), 0); got != w {
			t.Errorf("epoch %d = %q, want %q", e, got, w)
		}
	}
}

func TestInterpolateOddRunMidpointGoesLeft(t *testing.T) {
	// Run of 3 between A and B: positions get A, A, B per the paper's
	// [k..k+i/2]<-k-1 rule with i/2 integer division.
	sp := space(1)
	ser := seriesOf(sp, 1, map[int][]string{
		0: {"A", "", "", "", "B"},
	})
	out := Interpolate(ser, DefaultInterpolateOptions())
	want := []string{"A", "A", "A", "B", "B"}
	for e, w := range want {
		if got := siteAt(out, timeline.Epoch(e), 0); got != w {
			t.Errorf("epoch %d = %q, want %q", e, got, w)
		}
	}
}

func TestInterpolateReachLimit(t *testing.T) {
	// A run of 10 unknowns: only 3 from each side get filled.
	row := []string{"A"}
	for i := 0; i < 10; i++ {
		row = append(row, "")
	}
	row = append(row, "B")
	sp := space(1)
	ser := seriesOf(sp, 1, map[int][]string{0: row})
	out := Interpolate(ser, DefaultInterpolateOptions())
	want := []string{"A", "A", "A", "A", "", "", "", "", "B", "B", "B", "B"}
	for e, w := range want {
		if got := siteAt(out, timeline.Epoch(e), 0); got != w {
			t.Errorf("epoch %d = %q, want %q", e, got, w)
		}
	}
}

func TestInterpolateLeadingAndTrailing(t *testing.T) {
	sp := space(1)
	ser := seriesOf(sp, 1, map[int][]string{
		0: {"", "A", ""},
	})
	out := Interpolate(ser, DefaultInterpolateOptions())
	// Leading unknown has only a right donor; trailing only a left donor.
	if siteAt(out, 0, 0) != "A" || siteAt(out, 2, 0) != "A" {
		t.Errorf("edges = %q %q, want A A", siteAt(out, 0, 0), siteAt(out, 2, 0))
	}
}

func TestInterpolateAllUnknownStaysUnknown(t *testing.T) {
	sp := space(1)
	ser := seriesOf(sp, 1, map[int][]string{0: {"", "", ""}})
	out := Interpolate(ser, DefaultInterpolateOptions())
	for e := 0; e < 3; e++ {
		if got := siteAt(out, timeline.Epoch(e), 0); got != "" {
			t.Errorf("epoch %d = %q, want unknown", e, got)
		}
	}
}

func TestInterpolateDoesNotCrossCollectionGaps(t *testing.T) {
	// Vectors exist for epochs 0,1 and 5,6 (2-4 missing entirely). The
	// unknown at epoch 1 must not be filled from epoch 5's value.
	sp := space(1)
	v0 := sp.NewVector(0)
	v0.Set(0, "A")
	v1 := sp.NewVector(1) // unknown
	v5 := sp.NewVector(5)
	v5.Set(0, "B")
	v6 := sp.NewVector(6) // unknown
	ser := core.NewSeries(sp, sched(7), []*core.Vector{v0, v1, v5, v6}, nil)
	out := Interpolate(ser, DefaultInterpolateOptions())
	if got := siteAt(out, 1, 0); got != "A" {
		t.Errorf("epoch 1 = %q, want A (left donor within segment)", got)
	}
	if got := siteAt(out, 6, 0); got != "B" {
		t.Errorf("epoch 6 = %q, want B", got)
	}
}

func TestInterpolateMaxReachExactlyAtDonorDistance(t *testing.T) {
	// A run of 4 unknowns between donors: the half boundary puts positions
	// 1,2 on the left donor and 3,4 on the right, each at distance ≤ 2.
	// MaxReach 2 is exactly the donor distance of the innermost positions,
	// and "within reach" is inclusive — all four must fill.
	sp := space(1)
	ser := seriesOf(sp, 1, map[int][]string{
		0: {"A", "", "", "", "", "B"},
	})
	out := Interpolate(ser, InterpolateOptions{MaxReach: 2})
	want := []string{"A", "A", "A", "B", "B", "B"}
	for e, w := range want {
		if got := siteAt(out, timeline.Epoch(e), 0); got != w {
			t.Errorf("epoch %d = %q, want %q", e, got, w)
		}
	}
	// One epoch longer and the innermost positions sit at distance 3:
	// beyond MaxReach 2, they must stay unknown.
	ser = seriesOf(sp, 1, map[int][]string{
		0: {"A", "", "", "", "", "", "B"},
	})
	out = Interpolate(ser, InterpolateOptions{MaxReach: 2})
	want = []string{"A", "A", "A", "", "B", "B", "B"}
	for e, w := range want {
		if got := siteAt(out, timeline.Epoch(e), 0); got != w {
			t.Errorf("long run: epoch %d = %q, want %q", e, got, w)
		}
	}
}

func TestInterpolateSingleSidedRunsAtSegmentEdges(t *testing.T) {
	// Vectors exist for epochs 0-2 and 6-8 with a collection gap between.
	// The run trailing the first segment has only a left donor; the run
	// leading the second segment has only a right donor. Each side must
	// fill from its lone donor without borrowing across the gap.
	sp := space(1)
	mk := func(e timeline.Epoch, site string) *core.Vector {
		v := sp.NewVector(e)
		if site != "" {
			v.Set(0, site)
		}
		return v
	}
	ser := core.NewSeries(sp, sched(9), []*core.Vector{
		mk(0, "A"), mk(1, ""), mk(2, ""),
		mk(6, ""), mk(7, ""), mk(8, "B"),
	}, nil)
	out := Interpolate(ser, InterpolateOptions{MaxReach: 3})
	for _, c := range []struct {
		e    timeline.Epoch
		want string
	}{{1, "A"}, {2, "A"}, {6, "B"}, {7, "B"}} {
		if got := siteAt(out, c.e, 0); got != c.want {
			t.Errorf("epoch %d = %q, want %q", c.e, got, c.want)
		}
	}
	// With MaxReach 1 only the positions adjacent to a donor fill.
	out = Interpolate(ser, InterpolateOptions{MaxReach: 1})
	for _, c := range []struct {
		e    timeline.Epoch
		want string
	}{{1, "A"}, {2, ""}, {6, ""}, {7, "B"}} {
		if got := siteAt(out, c.e, 0); got != c.want {
			t.Errorf("reach 1: epoch %d = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestCoverage(t *testing.T) {
	sp := space(2)
	ser := seriesOf(sp, 2, map[int][]string{
		0: {"A", ""},
		1: {"A", "A"},
	})
	if got := Coverage(ser); got != 0.75 {
		t.Fatalf("Coverage = %v, want 0.75", got)
	}
}

// TestInterpolateUnderBlackoutFaults drives the unknown pattern from the
// fault layer's vantage-point blackouts instead of hand-placed gaps: dark
// windows arrive in aligned runs of BlackoutLen epochs, and interpolation
// with MaxReach of half a window must fill exactly the single-window
// outages while leaving the middles of multi-window outages unknown.
func TestInterpolateUnderBlackoutFaults(t *testing.T) {
	prof, ok := faults.ByName("blackout")
	if !ok {
		t.Fatal("blackout profile missing")
	}
	inj := faults.New(prof, 99, nil)
	if inj == nil {
		t.Fatal("blackout profile produced a nil injector")
	}
	const nets, epochs = 20, 40
	dark := func(n, e int) bool {
		return inj.Blackout("atlas", uint64(n), e)
	}
	sp := space(nets)
	var vs []*core.Vector
	for e := 0; e < epochs; e++ {
		v := sp.NewVector(timeline.Epoch(e))
		for n := 0; n < nets; n++ {
			if !dark(n, e) {
				v.Set(n, "A")
			}
		}
		vs = append(vs, v)
	}
	ser := core.NewSeries(sp, sched(epochs), vs, nil)

	// Blackout decisions are stateless per (entity, window): the pattern
	// must be window-aligned, and re-querying must reproduce it exactly.
	sawBlackout := false
	for n := 0; n < nets; n++ {
		for e := 0; e < epochs; e++ {
			if dark(n, e) != dark(n, e) {
				t.Fatal("blackout decision not reproducible")
			}
			if dark(n, e) {
				sawBlackout = true
				if dark(n, e) != dark(n, e-e%prof.BlackoutLen) {
					t.Fatalf("net %d epoch %d: blackout not window-aligned", n, e)
				}
			}
		}
	}
	if !sawBlackout {
		t.Fatal("blackout profile injected no blackouts over 800 cells")
	}

	out := Interpolate(ser, InterpolateOptions{MaxReach: prof.BlackoutLen / 2})
	for n := 0; n < nets; n++ {
		for e := 0; e < epochs; e++ {
			if !dark(n, e) {
				continue
			}
			// Length of the maximal dark run around e, and e's position.
			lo, hi := e, e
			for lo > 0 && dark(n, lo-1) {
				lo--
			}
			for hi < epochs-1 && dark(n, hi+1) {
				hi++
			}
			runLen := hi - lo + 1
			got := siteAt(out, timeline.Epoch(e), n)
			switch {
			case lo == 0 || hi == epochs-1:
				// Series-edge runs are single-sided; reach still bounds
				// the fill, anything further stays unknown.
				donorDist := e - lo + 1
				if lo == 0 {
					donorDist = hi - e + 1
				}
				if donorDist > prof.BlackoutLen/2 && got != "" {
					t.Errorf("net %d epoch %d: edge run filled beyond reach", n, e)
				}
			case runLen == prof.BlackoutLen:
				if got != "A" {
					t.Errorf("net %d epoch %d: single-window blackout not healed", n, e)
				}
			case runLen >= 2*prof.BlackoutLen:
				mid := lo + runLen/2
				if e == mid && got != "" {
					t.Errorf("net %d epoch %d: multi-window blackout middle filled", n, e)
				}
			}
		}
	}
}

func TestInterpolateIdempotentOnComplete(t *testing.T) {
	sp := space(2)
	ser := seriesOf(sp, 2, map[int][]string{
		0: {"A", "B", "A"},
		1: {"C", "C", "C"},
	})
	out := Interpolate(ser, DefaultInterpolateOptions())
	for e := 0; e < 3; e++ {
		for n := 0; n < 2; n++ {
			if siteAt(out, timeline.Epoch(e), n) != siteAt(ser, timeline.Epoch(e), n) {
				t.Fatal("interpolation changed complete data")
			}
		}
	}
}

// interpolateColumns is the column walk Interpolate replaced, kept as
// its oracle: every network's column is walked run by run, and each
// unknown run is split at its midpoint between its two donors.
func interpolateColumns(s *core.Series, opts InterpolateOptions) *core.Series {
	if opts.MaxReach <= 0 {
		opts.MaxReach = 3
	}
	out := make([]*core.Vector, 0, s.Len())
	for _, v := range s.Vectors {
		out = append(out, v.Clone())
	}
	start := 0
	for i := 1; i <= len(out); i++ {
		if i == len(out) || out[i].T != out[i-1].T+1 {
			for n := 0; n < s.Space.NumNetworks(); n++ {
				interpolateNetwork(out[start:i], n, opts.MaxReach)
			}
			start = i
		}
	}
	return core.NewSeries(s.Space, s.Schedule, out, s.Gaps)
}

// interpolateNetwork fills one network's unknown runs inside a contiguous
// segment of vectors.
func interpolateNetwork(seg []*core.Vector, n, maxReach int) {
	L := len(seg)
	for i := 0; i < L; {
		if seg[i].Get(n) != core.Unknown {
			i++
			continue
		}
		// Unknown run [i, j).
		j := i
		for j < L && seg[j].Get(n) == core.Unknown {
			j++
		}
		var left, right int32 = core.Unknown, core.Unknown
		if i > 0 {
			left = seg[i-1].Get(n)
		}
		if j < L {
			right = seg[j].Get(n)
		}
		runLen := j - i
		// First half leans on the left donor, second half on the right;
		// the midpoint (odd runs) goes left, matching the paper's
		// [k .. k+i/2] ← k−1 formulation. A run missing one donor (series
		// edge) is filled entirely from the available side.
		half := (runLen + 1) / 2
		if left == core.Unknown {
			half = 0
		} else if right == core.Unknown {
			half = runLen
		}
		for p := i; p < j; p++ {
			var donor int32
			var dist int
			if p-i < half {
				donor = left
				dist = p - (i - 1)
			} else {
				donor = right
				dist = j - p
			}
			if donor != core.Unknown && dist <= maxReach {
				seg[p].SetIndex(n, donor)
			}
		}
		i = j
	}
}

// randomGappySeries builds a seeded series over nets networks and six
// sites with the given unknown share. Its epochs jump now and then, so
// it has collection gaps, among them one-epoch segments, and every
// seventh network is unknown throughout.
func randomGappySeries(nets int, unknown float64, seed uint64) *core.Series {
	r := rng.New(seed)
	ids := make([]string, nets)
	for i := range ids {
		ids[i] = fmt.Sprintf("net%03d", i)
	}
	sp := core.NewSpace(ids)
	sites := []string{"A", "B", "C", "D", "E", "F"}
	var vs []*core.Vector
	t := timeline.Epoch(0)
	for len(vs) < 48 {
		if r.Bool(0.15) {
			t += timeline.Epoch(1 + r.Intn(3)) // a collection gap
		}
		v := sp.NewVector(t)
		for n := 0; n < nets; n++ {
			if n%7 != 3 && !r.Bool(unknown) {
				v.Set(n, sites[r.Intn(len(sites))])
			}
		}
		vs = append(vs, v)
		t++
	}
	return core.NewSeries(sp, sched(int(t)), vs, nil)
}

// TestInterpolateMatchesColumnOracle holds the word-parallel Interpolate
// to the column walk cell for cell, across reaches, unknown shares and
// network counts on both sides of a word boundary, with collection gaps,
// one-epoch segments and all-unknown networks. It also checks that the
// input series is left as it was.
func TestInterpolateMatchesColumnOracle(t *testing.T) {
	singles := 0
	for _, nets := range []int{1, 63, 64, 65, 130} {
		for _, unknown := range []float64{0.05, 0.3, 0.5, 0.8, 0.95, 0.99} {
			for reach := 1; reach <= 7; reach++ {
				seed := uint64(nets*1000 + int(unknown*100)*10 + reach)
				in := randomGappySeries(nets, unknown, seed)
				before := cloneAll(in.Vectors)
				want := interpolateColumns(in, InterpolateOptions{MaxReach: reach})
				got := Interpolate(in, InterpolateOptions{MaxReach: reach})
				for i, v := range got.Vectors {
					if i > 0 && i+1 < len(got.Vectors) && v.T != got.Vectors[i-1].T+1 && got.Vectors[i+1].T != v.T+1 {
						singles++
					}
					if v.T != want.Vectors[i].T {
						t.Fatalf("nets=%d unknown=%v reach=%d: vector %d has epoch %d, want %d", nets, unknown, reach, i, v.T, want.Vectors[i].T)
					}
					for n := 0; n < nets; n++ {
						if g, w := v.Get(n), want.Vectors[i].Get(n); g != w {
							t.Fatalf("nets=%d unknown=%v reach=%d: epoch %d network %d = %d, column walk %d", nets, unknown, reach, v.T, n, g, w)
						}
						if in.Vectors[i].Get(n) != before[i].Get(n) {
							t.Fatalf("nets=%d unknown=%v reach=%d: input epoch %d network %d was modified", nets, unknown, reach, v.T, n)
						}
					}
				}
			}
		}
	}
	if singles == 0 {
		t.Fatal("fixture broken: no one-epoch segment")
	}
}

func cloneAll(vs []*core.Vector) []*core.Vector {
	out := make([]*core.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}
