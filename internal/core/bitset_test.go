package core

import (
	"fmt"
	"testing"

	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// randomAssign builds a random assignment row over numSites sites with
// the given unknown fraction, deterministic in seed.
func randomAssign(n, numSites int, unknownFrac float64, seed uint64) []int32 {
	r := rng.New(seed)
	a := make([]int32, n)
	for i := range a {
		if r.Bool(unknownFrac) {
			a[i] = Unknown
		} else {
			a[i] = int32(r.Intn(numSites))
		}
	}
	return a
}

// vectorFromAssign materializes a Vector in space carrying the row; the
// space must already have the sites interned so indexes line up.
func vectorFromAssign(space *Space, t timeline.Epoch, assign []int32) *Vector {
	v := space.NewVector(t)
	copy(v.assign, assign)
	return v
}

func internSites(space *Space, n int) {
	for i := 0; i < n; i++ {
		space.SiteIndex(fmt.Sprintf("S%02d", i))
	}
}

// packedPhis returns Φ(a, b) through the packed kernel for (w, mode) in
// both layouts: each row packed at its own plane count (the monitor's
// layout, where B may differ between the rows) and both rows in one slab
// at a shared B (the matrix's). Each is checked for symmetry.
func packedPhis(t testing.TB, a, b *Vector, w []float64, mode UnknownMode) (own, slab float64) {
	t.Helper()
	kern := packedGowerKernel(w, mode, a.Space.NumNetworks())
	pair := func(x, y *packedRow) float64 {
		var out [1]float64
		kern.row(x, []packedRow{*y}, out[:])
		return out[0]
	}
	pa, pb := packRow(a.assign), packRow(b.assign)
	rows := packSlab([]*Vector{a, b})
	own, slab = pair(&pa, &pb), pair(&rows[0], &rows[1])
	if rev := pair(&pb, &pa); rev != own {
		t.Fatalf("mode=%v: packed Φ asymmetric: %v vs %v", mode, own, rev)
	}
	if rev := pair(&rows[1], &rows[0]); rev != slab {
		t.Fatalf("mode=%v: slab Φ asymmetric: %v vs %v", mode, slab, rev)
	}
	return own, slab
}

// assertPackedMatchesScalar checks both packed layouts against the
// scalar Gower loop, bit for bit.
func assertPackedMatchesScalar(t testing.TB, a, b *Vector, w []float64, mode UnknownMode, ctx string) {
	t.Helper()
	want := Gower(a, b, w, mode)
	own, slab := packedPhis(t, a, b, w, mode)
	if own != want || slab != want {
		t.Fatalf("%s mode=%v: packed Φ = %v (own planes), %v (slab), scalar %v", ctx, mode, own, slab, want)
	}
}

// assertRowsMatchScalar runs the row kernel for (w, mode) from every row
// of rows against all of them and checks each Φ against the scalar loop
// over the vectors they pack, bit for bit.
func assertRowsMatchScalar(t testing.TB, vs []*Vector, rows []packedRow, w []float64, mode UnknownMode, ctx string) {
	t.Helper()
	kern := packedGowerKernel(w, mode, vs[0].Space.NumNetworks())
	out := make([]float64, len(rows))
	for i := range rows {
		kern.row(&rows[i], rows, out)
		for j, got := range out {
			if want := Gower(vs[i], vs[j], w, mode); got != want {
				t.Fatalf("%s mode=%v: row %d (%d planes) Φ against row %d (%d planes) = %v, scalar %v",
					ctx, mode, i, rows[i].planes, j, rows[j].planes, got, want)
			}
		}
	}
}

// ownRows packs each vector at its own plane count, as a monitor does.
func ownRows(vs []*Vector) []packedRow {
	rows := make([]packedRow, len(vs))
	for i, v := range vs {
		rows[i] = packRow(v.assign)
	}
	return rows
}

// TestPackedKernelsBitIdenticalToScalar is the property test of the
// packed engine: across network counts straddling word boundaries, site
// alphabets from 1 to 300 (up to 9 planes), unknown densities, both
// UnknownModes, and nil/random/zero weights, every packed kernel must
// reproduce the scalar loop's float64 bit for bit in both layouts.
func TestPackedKernelsBitIdenticalToScalar(t *testing.T) {
	nets64 := []int{1, 3, 63, 64, 65, 127, 128, 200, 513}
	for _, n := range nets64 {
		for _, numSites := range []int{1, 2, 5, 9, 128, 300} {
			for _, uf := range []float64{0, 0.25, 0.6, 1.0} {
				for seed := uint64(1); seed <= 3; seed++ {
					space := NewSpace(nets(n))
					internSites(space, numSites)
					a := vectorFromAssign(space, 0, randomAssign(n, numSites, uf, seed))
					b := vectorFromAssign(space, 1, randomAssign(n, numSites, uf, seed+77))
					w := randomWeights(n, seed+200)
					wZero := make([]float64, n) // all-zero weights: total==0 edge
					for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
						for wi, weights := range [][]float64{nil, w, wZero} {
							assertPackedMatchesScalar(t, a, b, weights, mode,
								fmt.Sprintf("n=%d sites=%d uf=%v seed=%d w=%d", n, numSites, uf, seed, wi))
						}
					}
				}
			}
		}
	}
	// Whole rows of random slabs at every plane count from 0 to 9: B ≤ 7
	// takes an unrolled fold, 8 and 9 (up to 512 sites) the fold loop.
	for planes := 0; planes <= 9; planes++ {
		for _, n := range []int{1, 64, 130} {
			space := NewSpace(nets(n))
			numSites := 1 << planes
			internSites(space, numSites)
			var vs []*Vector
			for k := 0; k < 12; k++ {
				uf := []float64{0, 0.3, 0.9, 1}[k%4]
				assign := randomAssign(n, numSites, uf, uint64(100*planes+k))
				if k == 1 && planes > 0 {
					assign[n-1] = int32(numSites - 1) // one row sets the top plane
				}
				vs = append(vs, vectorFromAssign(space, timeline.Epoch(k), assign))
			}
			rows := packSlab(vs)
			if rows[0].planes != planes {
				t.Fatalf("fixture broken: slab of %d sites packed %d planes, want %d", numSites, rows[0].planes, planes)
			}
			for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
				for wi, w := range [][]float64{nil, randomWeights(n, uint64(planes+7))} {
					assertRowsMatchScalar(t, vs, rows, w, mode, fmt.Sprintf("slab planes=%d n=%d w=%d", planes, n, wi))
				}
			}
		}
	}
}

// TestPackedAsymmetricPlaneCounts pins the unequal-B path: rows whose
// largest site indexes have different bit lengths (1 vs 4 planes, and
// 2 vs 9 against a 300-site alphabet) must still match the scalar loop,
// whichever operand carries more planes.
func TestPackedAsymmetricPlaneCounts(t *testing.T) {
	const n = 100
	for _, tc := range []struct{ lowSites, highSite, wantLow, wantHigh int }{
		{2, 8, 1, 4},
		{3, 299, 2, 9},
	} {
		space := NewSpace(nets(n))
		internSites(space, tc.highSite+1)
		a := vectorFromAssign(space, 0, randomAssign(n, tc.lowSites, 0.2, 5))
		bAssign := randomAssign(n, tc.highSite+1, 0.2, 6)
		bAssign[n-1] = int32(tc.highSite) // force the high plane to exist
		b := vectorFromAssign(space, 1, bAssign)
		pa, pb := packRow(a.assign), packRow(b.assign)
		if pa.planes != tc.wantLow || pb.planes != tc.wantHigh {
			t.Fatalf("fixture broken: plane counts %d vs %d, want %d vs %d", pa.planes, pb.planes, tc.wantLow, tc.wantHigh)
		}
		for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
			for _, w := range [][]float64{nil, randomWeights(n, 9)} {
				assertPackedMatchesScalar(t, a, b, w, mode, fmt.Sprintf("planes %d/%d", tc.wantLow, tc.wantHigh))
				assertPackedMatchesScalar(t, b, a, w, mode, fmt.Sprintf("planes %d/%d reversed", tc.wantHigh, tc.wantLow))
			}
		}
	}
	// A monitor history packs each row at its own plane count, so one row
	// call mixes the unrolled and loop folds with the mask path.
	const m = 130
	space := NewSpace(nets(m))
	internSites(space, 600)
	var vs []*Vector
	for k, sites := range []int{1, 2, 600, 5, 128, 5, 300, 1, 9, 600, 2, 128} {
		assign := randomAssign(m, sites, []float64{0, 0.2, 0.7}[k%3], uint64(40+k))
		assign[k] = int32(sites - 1) // the row's top plane exists
		vs = append(vs, vectorFromAssign(space, timeline.Epoch(k), assign))
	}
	for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
		for wi, w := range [][]float64{nil, randomWeights(m, 13)} {
			assertRowsMatchScalar(t, vs, ownRows(vs), w, mode, fmt.Sprintf("mixed history w=%d", wi))
			// The same rows appended to a monitor, whose Φ rows come
			// from one row call each, and whose detection Φ takes the
			// one-row call when the detection mode differs.
			det := DefaultDetectOptions()
			det.Mode = PessimisticUnknown + KnownOnly - mode
			mon := NewMonitor(space, sched(len(vs)), w, mode, det)
			for _, v := range vs {
				if _, _, err := mon.Append(v); err != nil {
					t.Fatal(err)
				}
			}
			for i := range vs {
				for j := range i {
					if got, want := mon.sim[i][j], Gower(vs[i], vs[j], w, mode); got != want {
						t.Fatalf("mixed history w=%d mode=%v: monitor Φ(%d, %d) = %v, scalar %v", wi, mode, i, j, got, want)
					}
					if got, want := mon.detPhiLocked(i, j), Gower(vs[i], vs[j], w, det.Mode); got != want {
						t.Fatalf("mixed history w=%d mode=%v: monitor detection Φ(%d, %d) = %v, scalar %v", wi, det.Mode, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestPackedPlanesFromIndexesPresent pins the plane count to the largest
// index a row holds, not the space's alphabet: an index set with
// SetIndex beyond every interned site (and a negative one other than
// Unknown) must get enough planes that no two sites alias.
func TestPackedPlanesFromIndexesPresent(t *testing.T) {
	const n = 70
	space := NewSpace(nets(n))
	internSites(space, 2)
	a, b := space.NewVector(0), space.NewVector(1)
	for i := 0; i < n; i++ {
		a.SetIndex(i, 1)
		b.SetIndex(i, 1)
	}
	b.SetIndex(3, 1+1<<20) // aliases site 1 unless plane 20 exists
	b.SetIndex(4, -7)
	if got := packRow(b.assign).planes; got != 32 {
		t.Fatalf("planes = %d, want 32 for a negative index", got)
	}
	for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
		assertPackedMatchesScalar(t, a, b, nil, mode, "SetIndex")
	}
}

// TestPackTailMaskInvariant asserts the invariant the popcount kernels
// rely on: for N not a multiple of 64, no plane and no known mask of any
// slab row ever has a bit set at position ≥ N.
func TestPackTailMaskInvariant(t *testing.T) {
	for _, n := range []int{1, 63, 65, 100, 127, 129} {
		space := NewSpace(nets(n))
		internSites(space, 300)
		var vs []*Vector
		for k, sites := range []int{5, 300, 1} {
			vs = append(vs, vectorFromAssign(space, timeline.Epoch(k), randomAssign(n, sites, 0.1, uint64(n+k))))
		}
		rows := packSlab(vs)
		planes := 0 // the slab's shared count: the most any row needs
		for _, v := range vs {
			planes = max(planes, packRow(v.assign).planes)
		}
		valid := n - (rows[0].words()-1)*64 // bits used in the last word
		tailMask := ^uint64(0)
		if valid < 64 {
			tailMask = (uint64(1) << uint(valid)) - 1
		}
		for i := range rows {
			if rows[i].planes != planes || rows[i].words() != (n+63)/64 {
				t.Fatalf("n=%d row %d: %d planes over %d words", n, i, rows[i].planes, rows[i].words())
			}
			r := &rows[i]
			for p, x := range r.w[len(r.w)-(r.planes+1):] {
				if x&^tailMask != 0 {
					t.Fatalf("n=%d row %d: tail word %d (0 = known) has bits beyond N: %#x", n, i, p, x)
				}
			}
		}
	}
}

// TestPackedAllUnknown covers the zero-plane degenerate: an all-unknown
// vector packs to zero planes on its own and to all-zero words in a slab,
// and every kernel returns the scalar value either way.
func TestPackedAllUnknown(t *testing.T) {
	const n = 70
	space := NewSpace(nets(n))
	internSites(space, 3)
	empty := space.NewVector(0)
	full := vectorFromAssign(space, 1, randomAssign(n, 3, 0, 4))
	if pe := packRow(empty.assign); pe.planes != 0 || pe.full {
		t.Fatalf("all-unknown vector packed %d planes (full=%v)", pe.planes, pe.full)
	}
	for i, x := range packSlab([]*Vector{empty, full})[0].w {
		if x != 0 {
			t.Fatalf("all-unknown slab row word %d = %#x", i, x)
		}
	}
	w := randomWeights(n, 11)
	for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
		for _, weights := range [][]float64{nil, w} {
			assertPackedMatchesScalar(t, empty, full, weights, mode, "Φ(empty,full)")
			assertPackedMatchesScalar(t, empty, empty, weights, mode, "Φ(empty,empty)")
		}
	}
}

// TestPackedWeightsTotal pins the pre-summed denominator to the exact
// ascending-order accumulation the scalar pessimistic loop performs.
func TestPackedWeightsTotal(t *testing.T) {
	w := randomWeights(999, 3)
	var seq float64
	for _, wi := range w {
		seq += wi
	}
	if pw := newPackedWeights(w); pw.total != seq {
		t.Fatalf("pre-summed total %v != sequential sum %v", pw.total, seq)
	}
}

// TestPackedFullKnownFastPath drives the known-only weighted kernel down
// its pre-summed-total branch (both vectors fully known) and checks it
// against the scalar loop.
func TestPackedFullKnownFastPath(t *testing.T) {
	const n = 130
	space := NewSpace(nets(n))
	internSites(space, 4)
	a := vectorFromAssign(space, 0, randomAssign(n, 4, 0, 21))
	b := vectorFromAssign(space, 1, randomAssign(n, 4, 0, 22))
	if pa, pb := packRow(a.assign), packRow(b.assign); !pa.full || !pb.full {
		t.Fatal("fixture broken: vectors not fully known")
	}
	assertPackedMatchesScalar(t, a, b, randomWeights(n, 23), KnownOnly, "full-known fast path")
}

// TestBalancedTriangleTiles checks the partition invariants: spans cover
// [0,n) disjointly in order, P=1 is one tile, and the per-tile pair
// counts (row i of the lower triangle holds i pairs) are far closer to
// equal than equal-row tiling would produce.
func TestBalancedTriangleTiles(t *testing.T) {
	pairsIn := func(s rowSpan) int {
		p := 0
		for i := s.lo; i < s.hi; i++ {
			p += i
		}
		return p
	}
	for _, tc := range []struct{ n, p int }{{1024, 4}, {1024, 16}, {1024, 1}, {100, 3}, {16, 4}, {9, 8}, {2, 2}, {3, 16}, {1, 1}} {
		tiles := balancedTriangleTiles(tc.n, tc.p)
		if len(tiles) == 0 || len(tiles) > tc.p {
			t.Fatalf("n=%d p=%d: %d tiles", tc.n, tc.p, len(tiles))
		}
		if tiles[0].lo != 0 || tiles[len(tiles)-1].hi != tc.n {
			t.Fatalf("n=%d p=%d: tiles %v do not cover [0,n)", tc.n, tc.p, tiles)
		}
		for i := range tiles {
			if tiles[i].hi <= tiles[i].lo {
				t.Fatalf("n=%d p=%d: empty tile %v", tc.n, tc.p, tiles[i])
			}
			if i > 0 && tiles[i].lo != tiles[i-1].hi {
				t.Fatalf("n=%d p=%d: gap between %v and %v", tc.n, tc.p, tiles[i-1], tiles[i])
			}
		}
		if tc.n >= 512 && len(tiles) >= 4 {
			total := tc.n * (tc.n - 1) / 2
			ideal := total / len(tiles)
			for _, s := range tiles {
				got := pairsIn(s)
				if got < ideal*7/10 || got > ideal*13/10 {
					t.Fatalf("n=%d p=%d: tile %v carries %d pairs, ideal %d (±30%%)", tc.n, tc.p, s, got, ideal)
				}
			}
		}
	}
}

// FuzzPackedGower fuzzes raw assignment bytes through the packed engine:
// every byte decodes to Unknown (255) or to site (byte mod sites) ×
// stride, so a large stride reaches indexes far past 255 — up to 20
// planes — and two rows of one input often carry different plane counts.
// Both packed layouts must equal the scalar loop bitwise in all four
// (mode × weighting) combinations.
func FuzzPackedGower(f *testing.F) {
	f.Add([]byte{0, 1, 2, 255}, []byte{1, 1, 255, 3}, uint8(4), uint16(0))
	f.Add([]byte{255, 255}, []byte{255, 255}, uint8(1), uint16(0))
	f.Add(make([]byte, 130), make([]byte, 70), uint8(9), uint16(0))
	// 9+ planes: indexes up to 9·41 = 369.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 3}, []byte{9, 8, 7, 255, 5, 4, 3, 2, 1, 0, 9, 3}, uint8(15), uint16(40))
	// Unequal plane counts: row A tops out at 300 (9 planes), row B at
	// 15·300 = 4500 (13 planes).
	f.Add([]byte{0, 1, 0, 1, 255, 1}, []byte{0, 1, 14, 15, 255, 2},
		uint8(15), uint16(299))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, numSites uint8, strideRaw uint16) {
		sites := int(numSites%16) + 1
		stride := int(strideRaw) + 1
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		if n == 0 {
			return
		}
		decode := func(raw []byte) []int32 {
			a := make([]int32, n)
			for i := range a {
				if raw[i] == 255 {
					a[i] = Unknown
				} else {
					a[i] = int32(int(raw[i]) % sites * stride)
				}
			}
			return a
		}
		space := NewSpace(nets(n))
		a := vectorFromAssign(space, 0, decode(rawA))
		b := vectorFromAssign(space, 1, decode(rawB))
		w := randomWeights(n, uint64(n)*31+uint64(numSites))
		vs := []*Vector{a, b, a, b}
		mixed := ownRows(vs)
		mixed[2] = packSlab(vs)[2] // a at the slab's B beside a at its own
		for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
			for wi, weights := range [][]float64{nil, w} {
				assertPackedMatchesScalar(t, a, b, weights, mode, fmt.Sprintf("w=%d", wi))
				assertRowsMatchScalar(t, vs, mixed, weights, mode, fmt.Sprintf("rows w=%d", wi))
			}
		}
	})
}
