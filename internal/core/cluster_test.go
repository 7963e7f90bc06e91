package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// blockMatrix builds a similarity matrix with perfect blocks: rows in the
// same group have Φ=inPhi, cross-group pairs Φ=outPhi.
func blockMatrix(groups [][]int, n int, inPhi, outPhi float64) *SimMatrix {
	m := NewSimMatrix(n)
	group := make([]int, n)
	for gi, g := range groups {
		for _, r := range g {
			group[r] = gi
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if group[i] == group[j] {
				m.Set(i, j, inPhi)
			} else {
				m.Set(i, j, outPhi)
			}
		}
	}
	return m
}

func sameClusters(got [][]int, want [][]int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

func TestHACRecoversBlocks(t *testing.T) {
	groups := [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7, 8}}
	m := blockMatrix(groups, 9, 0.9, 0.1)
	for _, link := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage} {
		dg := HAC(m, link)
		if len(dg.Merges) != 8 {
			t.Fatalf("%v: %d merges, want 8", link, len(dg.Merges))
		}
		cut := dg.Cut(0.5)
		if !sameClusters(cut, groups) {
			t.Fatalf("%v: cut = %v, want %v", link, cut, groups)
		}
	}
}

func TestCutExtremes(t *testing.T) {
	m := blockMatrix([][]int{{0, 1}, {2, 3}}, 4, 0.9, 0.1)
	dg := HAC(m, AverageLinkage)
	if got := dg.Cut(0.0); len(got) != 4 {
		t.Fatalf("cut(0) = %v, want singletons", got)
	}
	if got := dg.Cut(1.0); len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("cut(1) = %v, want one cluster", got)
	}
}

func TestCutZeroDistanceIdenticalVectors(t *testing.T) {
	// Identical vectors have distance 0 and must cluster even at
	// threshold 0.
	m := blockMatrix([][]int{{0, 1, 2}, {3}}, 4, 1.0, 0.2)
	dg := HAC(m, AverageLinkage)
	got := dg.Cut(0.0)
	if len(got) != 2 || len(got[0]) != 3 {
		t.Fatalf("cut(0) with identical vectors = %v", got)
	}
}

func TestLinkagesDifferOnChain(t *testing.T) {
	// A chain 0-1-2-3 with adjacent Φ=0.8, distant pairs Φ declining:
	// single linkage chains everything at threshold 0.25; complete does
	// not.
	m := NewSimMatrix(4)
	m.Set(0, 1, 0.8)
	m.Set(1, 2, 0.8)
	m.Set(2, 3, 0.8)
	m.Set(0, 2, 0.4)
	m.Set(1, 3, 0.4)
	m.Set(0, 3, 0.1)
	single := HAC(m, SingleLinkage).Cut(0.25)
	if len(single) != 1 {
		t.Fatalf("single linkage cut = %v, want one chain cluster", single)
	}
	complete := HAC(m, CompleteLinkage).Cut(0.25)
	if len(complete) == 1 {
		t.Fatalf("complete linkage merged the full chain at 0.25: %v", complete)
	}
}

func TestHACMatchesNaiveAgglomeration(t *testing.T) {
	// Cross-check NN-chain against a naive O(N^3) implementation on
	// random matrices, for every linkage, comparing cut results at
	// several thresholds.
	for _, linkage := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed)
			n := 12
			m := NewSimMatrix(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					m.Set(i, j, r.Float64())
				}
			}
			fast := HAC(m, linkage)
			slow := naiveHAC(m, linkage)
			for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
				a := fast.Cut(th)
				b := slow.Cut(th)
				if !sameClusters(a, b) {
					t.Fatalf("%v seed %d threshold %v: nn-chain %v != naive %v", linkage, seed, th, a, b)
				}
			}
		}
	}
}

// naiveHAC is a reference O(N^3) implementation: merge the closest
// active pair, then apply the linkage's Lance–Williams update.
func naiveHAC(m *SimMatrix, linkage Linkage) *Dendrogram {
	n := m.N
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				d[i][j] = 1 - m.At(i, j)
			}
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	id := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
		id[i] = i
	}
	dg := &Dendrogram{N: n}
	next := n
	for remaining := n; remaining > 1; remaining-- {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if d[i][j] < bd {
					bi, bj, bd = i, j, d[i][j]
				}
			}
		}
		dg.Merges = append(dg.Merges, Merge{A: id[bi], B: id[bj], Height: bd})
		ni, nj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			var nd float64
			switch linkage {
			case SingleLinkage:
				nd = math.Min(d[bi][k], d[bj][k])
			case CompleteLinkage:
				nd = math.Max(d[bi][k], d[bj][k])
			default:
				nd = (ni*d[bi][k] + nj*d[bj][k]) / (ni + nj)
			}
			d[bi][k], d[k][bi] = nd, nd
		}
		size[bi] += size[bj]
		active[bj] = false
		id[bi] = next
		next++
	}
	return dg
}

// denseNNChain is the dense NN-chain HAC that the condensed triangle
// replaced, kept as the exact oracle: the same chain rule (smallest
// distance, then smallest index) over an n×n distance copy whose
// Lance–Williams update writes row and column.
func denseNNChain(m *SimMatrix, linkage Linkage) *Dendrogram {
	n := m.N
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d[i*n+j] = 1 - m.At(i, j)
			}
		}
	}
	size := make([]int, n)
	active := make([]bool, n)
	id := make([]int, n)
	for i := 0; i < n; i++ {
		size[i] = 1
		active[i] = true
		id[i] = i
	}
	dg := &Dendrogram{N: n}
	nextID := n
	chain := make([]int, 0, n)
	remaining := n
	for remaining > 1 {
		if len(chain) == 0 {
			for i := 0; i < n; i++ {
				if active[i] {
					chain = append(chain, i)
					break
				}
			}
		}
		for {
			top := chain[len(chain)-1]
			best, bestD := -1, 0.0
			for j := 0; j < n; j++ {
				if !active[j] || j == top {
					continue
				}
				dj := d[top*n+j]
				if best == -1 || dj < bestD || (dj == bestD && j < best) {
					best, bestD = j, dj
				}
			}
			if len(chain) >= 2 && best == chain[len(chain)-2] {
				a, b := chain[len(chain)-2], chain[len(chain)-1]
				chain = chain[:len(chain)-2]
				dg.Merges = append(dg.Merges, Merge{A: id[a], B: id[b], Height: bestD})
				na, nb := float64(size[a]), float64(size[b])
				for k := 0; k < n; k++ {
					if !active[k] || k == a || k == b {
						continue
					}
					da, db := d[a*n+k], d[b*n+k]
					var nd float64
					switch linkage {
					case SingleLinkage:
						nd = min(da, db)
					case CompleteLinkage:
						nd = max(da, db)
					default:
						nd = (na*da + nb*db) / (na + nb)
					}
					d[a*n+k] = nd
					d[k*n+a] = nd
				}
				size[a] += size[b]
				active[b] = false
				id[a] = nextID
				nextID++
				remaining--
				break
			}
			chain = append(chain, best)
		}
	}
	return dg
}

// servedMonitor is a Window=W monitor fed 3W/2+10 observations of the
// serve-deep routing model — 256 networks over 5 sites, 30% of cells
// unobserved, 2% flipped to a random site, and a move to another of 4
// recurring modes every 10 epochs — so its Φ triangle has been slid by
// evictions.
func servedMonitor(t testing.TB, W int, seed uint64) *Monitor {
	t.Helper()
	const networks, numModes = 256, 4
	r := rng.New(seed)
	space := NewSpace(nets(networks))
	sites := []string{"A", "B", "C", "D", "E"}
	modes := make([][]string, numModes)
	for k := range modes {
		modes[k] = make([]string, networks)
		for i := range modes[k] {
			modes[k][i] = sites[r.Intn(len(sites))]
		}
	}
	mon := NewMonitorOpts(space, sched(1<<20), MonitorOptions{
		Mode: PessimisticUnknown, Detect: DefaultDetectOptions(), Window: W,
	})
	cur := 0
	for e := 0; e < W+W/2+10; e++ {
		if e > 0 && e%10 == 0 {
			cur = (cur + 1 + r.Intn(numModes-1)) % numModes
		}
		v := space.NewVector(timeline.Epoch(e))
		for i, site := range modes[cur] {
			switch {
			case r.Bool(0.3):
			case r.Bool(0.02):
				v.Set(i, sites[r.Intn(len(sites))])
			default:
				v.Set(i, site)
			}
		}
		if _, _, err := mon.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return mon
}

// TestHACMatchesDenseNNChain pins the condensed-triangle NN-chain to the
// dense one it replaced, merge for merge: the whole Dendrogram (pairs,
// heights and order) must be equal for every linkage. The inputs are
// the serve-deep model's windowed monitors, whose live mode read must
// also equal the batch one, and random matrices over five Φ values,
// where ties between equal distances decide most scans.
func TestHACMatchesDenseNNChain(t *testing.T) {
	linkages := []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage}
	same := func(where string, m *SimMatrix) {
		t.Helper()
		for _, l := range linkages {
			got, want := HAC(m, l), denseNNChain(m, l)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: condensed dendrogram diverged from dense NN-chain", where, l)
			}
		}
	}
	for _, W := range []int{2, 3, 64, 300, 1024} {
		mon := servedMonitor(t, W, uint64(W))
		m := mon.Matrix()
		same(fmt.Sprintf("W=%d", W), m)
		live, batch := mon.LiveModes(), DiscoverModes(m, DefaultAdaptiveOptions())
		if !sameModes(live, batch) {
			t.Fatalf("W=%d: LiveModes %+v != DiscoverModes %+v", W, live, batch)
		}
	}
	phis := []float64{0, 0.25, 0.5, 0.75, 1}
	for seed := uint64(0); seed < 200; seed++ {
		r := rng.New(seed)
		n := int(seed % 42)
		m := NewSimMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, phis[r.Intn(len(phis))])
			}
		}
		same(fmt.Sprintf("seed=%d n=%d", seed, n), m)
	}
}

// TestModeRebuildAllocatesOneTriangle pins the live re-cluster's memory.
// A cold W=1024 rebuild may allocate the n(n−1)/2 float64 triangle plus
// 1 MiB for everything else (chain, live list, sweep and mode assembly),
// never a dense n×n copy. A warm rebuild, after one more append, takes
// the triangle the cold one returned to HAC's pool and must allocate
// under 1 MiB. GOMAXPROCS is pinned to 1 so both run on the P that holds
// the pooled triangle. The race detector makes the pool drop one Put in
// four at random, so the warm rebuild may miss it a few times in a row,
// but not eight.
func TestModeRebuildAllocatesOneTriangle(t *testing.T) {
	const W = 1024
	mon := servedMonitor(t, W, 5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rebuild := func() uint64 {
		t.Helper()
		before := mon.engine.rebuilds
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		mon.LiveModes()
		runtime.ReadMemStats(&ms1)
		if got := mon.engine.rebuilds - before; got != 1 {
			t.Fatalf("read rebuilt %d times, want 1", got)
		}
		return ms1.TotalAlloc - ms0.TotalAlloc
	}
	limit := uint64(W*(W-1)/2*8 + 1<<20)
	if grew := rebuild(); grew >= limit {
		t.Fatalf("W=%d cold rebuild allocated %d bytes, want < %d", W, grew, limit)
	}
	s := mon.Series()
	last := s.Vectors[len(s.Vectors)-1]
	var warm []uint64
	for k := 1; k <= 8; k++ {
		v := last.Clone()
		v.T = last.T + timeline.Epoch(k)
		if _, _, err := mon.Append(v); err != nil {
			t.Fatal(err)
		}
		grew := rebuild()
		if grew < 1<<20 {
			return
		}
		warm = append(warm, grew)
	}
	t.Fatalf("W=%d warm rebuilds allocated %v bytes, want one < %d", W, warm, 1<<20)
}

// TestHACPooledTriangleReuse runs HAC over a W=1024 monitor, a 7-row
// and a 300-row matrix, then the W=1024 one again, on one P, so each
// fill after the first lands in the pooled triangle the first one left,
// over whatever the fill before it wrote. Every dendrogram must equal
// the dense oracle's: no distance a pooled triangle holds from an
// earlier fill may reach a later one.
func TestHACPooledTriangleReuse(t *testing.T) {
	big := servedMonitor(t, 1024, 11).Matrix()
	seven := servedMonitor(t, 7, 12).Matrix()
	mid := servedMonitor(t, 300, 13).Matrix()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i, m := range []*SimMatrix{big, seven, mid, big} {
		for _, l := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
			if got, want := HAC(m, l), denseNNChain(m, l); !reflect.DeepEqual(got, want) {
				t.Fatalf("matrix %d (n=%d) %v: pooled-triangle dendrogram diverged from dense NN-chain", i, m.N, l)
			}
		}
	}
}

// TestHACConcurrentReclusters re-clusters eight monitors of different
// sizes at once, each through a cold LiveModes and then HAC itself, so
// goroutines take pooled triangles of other sizes and put them back in
// any order. Every result must equal its serial one; make race runs it
// under the race detector.
func TestHACConcurrentReclusters(t *testing.T) {
	sizes := []int{7, 32, 64, 100, 128, 200, 256, 300}
	mons := make([]*Monitor, len(sizes))
	wantModes := make([]*ModesResult, len(sizes))
	wantDG := make([]*Dendrogram, len(sizes))
	for i, W := range sizes {
		mons[i] = servedMonitor(t, W, uint64(100+i))
		m := mons[i].Matrix()
		wantModes[i] = DiscoverModes(m, DefaultAdaptiveOptions())
		wantDG[i] = HAC(m, CompleteLinkage)
	}
	var wg sync.WaitGroup
	for i, mon := range mons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := mon.LiveModes(); !sameModes(got, wantModes[i]) {
				t.Errorf("W=%d: concurrent LiveModes differs from the serial DiscoverModes", sizes[i])
				return
			}
			m := mon.Matrix()
			for r := 0; r < 3; r++ {
				if got := HAC(m, CompleteLinkage); !reflect.DeepEqual(got, wantDG[i]) {
					t.Errorf("W=%d round %d: concurrent HAC differs from the serial one", sizes[i], r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMonitorMatrixSharesRows pins Monitor.Matrix and Monitor.State to
// views of the monitor's Φ rows: at W=1024 each allocates under 64 KiB
// where a dense copy took 8.4 MB and a copied triangle 4.5 MB (the serve
// daemon's /heatmap and every checkpoint take them under the tenant's
// mutex), and a view or state taken before further appends and
// evictions still reads the history it was taken over.
func TestMonitorMatrixSharesRows(t *testing.T) {
	const W = 1024
	mon := servedMonitor(t, W, 5)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m := mon.Matrix()
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("W=%d Matrix allocated %d bytes, want < %d", W, grew, 64<<10)
	}
	runtime.ReadMemStats(&ms0)
	st := mon.State()
	runtime.ReadMemStats(&ms1)
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("W=%d State allocated %d bytes, want < %d", W, grew, 64<<10)
	}
	s := mon.Series()
	want := SimilarityMatrix(s, nil, PessimisticUnknown)
	if !sameMatrix(m, want) {
		t.Fatal("Matrix differs from the batch matrix of the same history")
	}
	last := s.Vectors[len(s.Vectors)-1].T
	for k, v := range s.Vectors[:W/2] {
		v = v.Clone()
		v.T = last + timeline.Epoch(k+1)
		if _, _, err := mon.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if !sameMatrix(m, want) {
		t.Fatal("appends and evictions changed an earlier Matrix")
	}
	rest, err := RestoreMonitor(st)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatrix(rest.Matrix(), want) {
		t.Fatal("appends and evictions changed an earlier State")
	}
}

// TestHACNaNDistanceTerminates is the regression test for a NaN
// distance sending NN-chain round a cycle: with the dense scan's
// "first candidate, then strictly smaller" rule a NaN that came first
// could never be displaced, so on this 4-row matrix the chain cycled
// 0 → 2 → 3 → 0 forever, growing without bound. NaN now sorts after
// every number. A spinning HAC cannot be stopped, so the deadline
// panics, ending the test binary, rather than fail and leave it running.
func TestHACNaNDistanceTerminates(t *testing.T) {
	m := NewSimMatrix(4)
	for _, p := range []struct {
		i, j int
		d    float64
	}{{0, 1, 0.1}, {0, 2, 0.1}, {0, 3, 0.1}, {1, 2, 0.2}, {1, 3, math.NaN()}, {2, 3, 0.1}} {
		m.Set(p.i, p.j, 1-p.d)
	}
	for _, l := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		done := make(chan *Dendrogram, 1)
		go func() { done <- HAC(m, l) }()
		select {
		case dg := <-done:
			if len(dg.Merges) != 3 {
				t.Fatalf("%v: %d merges, want 3", l, len(dg.Merges))
			}
		case <-time.After(500 * time.Millisecond):
			panic(fmt.Sprintf("%v: HAC still running after 500ms", l))
		}
	}
}

func TestClusterAdaptiveFindsBlocks(t *testing.T) {
	groups := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8}}
	m := blockMatrix(groups, 9, 0.85, 0.2)
	th, clusters := ClusterAdaptive(m, DefaultAdaptiveOptions())
	if !sameClusters(clusters, groups) {
		t.Fatalf("adaptive clusters = %v (threshold %v)", clusters, th)
	}
	if th > 0.5 {
		t.Fatalf("threshold %v unexpectedly high", th)
	}
}

func TestClusterAdaptiveManyModesStaysUnderCap(t *testing.T) {
	// 30 groups of 2 with moderate internal similarity: the adaptive rule
	// must keep raising the threshold until <15 clusters remain.
	var groups [][]int
	for i := 0; i < 30; i++ {
		groups = append(groups, []int{2 * i, 2*i + 1})
	}
	// Give cross-group similarity a gradient so merging order is defined.
	n := 60
	m := NewSimMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i/2 == j/2 {
				m.Set(i, j, 0.95)
			} else {
				// Closer group indexes are more similar.
				gap := float64(j/2 - i/2)
				m.Set(i, j, 0.7-0.02*gap)
			}
		}
	}
	opts := DefaultAdaptiveOptions()
	_, clusters := ClusterAdaptive(m, opts)
	if len(clusters) >= opts.MaxClusters {
		t.Fatalf("%d clusters, want < %d", len(clusters), opts.MaxClusters)
	}
	if len(clusters) < 1 {
		t.Fatal("no clusters")
	}
}

func TestDiscoverModes(t *testing.T) {
	// Epochs 0-4 mode A, 5-9 mode B, 10-12 mode A again (recurrence).
	s := NewSpace(nets(40))
	var vs []*Vector
	assign := func(v *Vector, site string) {
		for i := 0; i < 40; i++ {
			v.Set(i, site)
		}
	}
	for e := 0; e < 13; e++ {
		v := s.NewVector(timeline.Epoch(e))
		switch {
		case e < 5:
			assign(v, "A")
		case e < 10:
			assign(v, "B")
		default:
			assign(v, "A")
		}
		vs = append(vs, v)
	}
	ser := NewSeries(s, sched(13), vs, nil)
	m := SimilarityMatrix(ser, nil, PessimisticUnknown)
	res := DiscoverModes(m, DefaultAdaptiveOptions())
	if len(res.Modes) != 2 {
		t.Fatalf("%d modes, want 2", len(res.Modes))
	}
	a := res.Modes[0]
	if len(a.Ranges) != 2 {
		t.Fatalf("mode A ranges = %v, want recurrence (2 ranges)", a.Ranges)
	}
	if a.Ranges[0] != (timeline.Range{From: 0, To: 5}) || a.Ranges[1] != (timeline.Range{From: 10, To: 13}) {
		t.Fatalf("mode A ranges = %v", a.Ranges)
	}
	if a.InternalLo != 1 || a.InternalHi != 1 {
		t.Fatalf("mode A internal Φ = [%v,%v]", a.InternalLo, a.InternalHi)
	}
	lo, hi := res.CrossPhi(res.Modes[0], res.Modes[1])
	if lo != 0 || hi != 0 {
		t.Fatalf("cross Φ = [%v,%v]", lo, hi)
	}
	rec := res.Recurrences()
	if len(rec) != 1 || rec[0].ID != a.ID {
		t.Fatalf("Recurrences = %v", rec)
	}
	if res.ModeOf(11) == nil || res.ModeOf(11).ID != a.ID {
		t.Fatal("ModeOf broken")
	}
}

func TestDiscoverModesNoisy(t *testing.T) {
	// Noisy version: 10% of networks differ within a mode; modes still
	// separate because cross-mode similarity is far lower.
	r := rng.New(77)
	s := NewSpace(nets(200))
	var vs []*Vector
	for e := 0; e < 30; e++ {
		v := s.NewVector(timeline.Epoch(e))
		base := "A"
		if e >= 15 {
			base = "B"
		}
		for i := 0; i < 200; i++ {
			if r.Bool(0.1) {
				v.Set(i, "C") // noise
			} else {
				v.Set(i, base)
			}
		}
		vs = append(vs, v)
	}
	ser := NewSeries(s, sched(30), vs, nil)
	m := SimilarityMatrix(ser, nil, PessimisticUnknown)
	res := DiscoverModes(m, DefaultAdaptiveOptions())
	// The two halves must land in different modes.
	m0 := res.ModeOf(0)
	m29 := res.ModeOf(29)
	if m0 == nil || m29 == nil || m0.ID == m29.ID {
		t.Fatalf("noisy modes not separated: %v vs %v", m0, m29)
	}
	if res.ModeOf(0).ID != res.ModeOf(14).ID {
		t.Fatal("within-mode epochs split")
	}
}

func BenchmarkHAC500(b *testing.B) {
	r := rng.New(9)
	m := NewSimMatrix(500)
	for i := 0; i < 500; i++ {
		for j := i + 1; j < 500; j++ {
			m.Set(i, j, r.Float64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HAC(m, AverageLinkage)
	}
}

// TestClusterAdaptiveNominalThresholds pins the float-drift fix in the
// threshold sweep: thresholds must be the nominal grid points i·Step,
// not an accumulated t += Step sum. The fixture's single-linkage A–B
// merge height is exactly 0.5 + 2⁻⁵³ — just above the nominal grid
// point 0.50 (float64(50)*0.01 == 0.5 exactly) but below the
// accumulated sum after fifty additions of 0.01 (≈ 0.5 + 2.2e-16) —
// so the drifting sweep merged A and B one step early and reported the
// drifted threshold 0.50000000000000022, while the nominal sweep first
// sees the merged clustering at exactly 0.51.
func TestClusterAdaptiveNominalThresholds(t *testing.T) {
	hStar := 0.5 + 0x1p-53
	m := NewSimMatrix(8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			switch {
			case j <= 2: // within A = {0,1,2}
				m.Set(i, j, 0.995)
			case i >= 3 && j <= 5: // within B = {3,4,5}
				m.Set(i, j, 0.995)
			case i <= 2 && j <= 5: // A×B cross pairs
				m.Set(i, j, 0.2)
			default: // pairs touching the singletons 6, 7
				m.Set(i, j, 0.05)
			}
		}
	}
	// Closest A–B pair: Φ = 1 − hStar is exact (Sterbenz), and the
	// sweep's d = 1 − Φ recovers exactly hStar as the merge height.
	m.Set(2, 3, 1-hStar)

	opts := AdaptiveOptions{MaxClusters: 4, MinMembers: 2, Step: 0.01, Linkage: SingleLinkage}
	threshold, clusters := ClusterAdaptive(m, opts)
	if threshold != 0.51 {
		t.Fatalf("threshold = %.20g, want the nominal grid point 0.51", threshold)
	}
	want := [][]int{{0, 1, 2, 3, 4, 5}, {6}, {7}}
	if !sameClusters(clusters, want) {
		t.Fatalf("clusters = %v, want %v", clusters, want)
	}
}
