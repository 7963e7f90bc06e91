package core

import "math/bits"

// This file is the bit-sliced Gower engine, the only engine behind the
// similarity matrix and the streaming monitor. A vector's assignment row
// is packed into uint64 words: for every 64 networks, one known mask and
// B value planes, where plane p holds bit p of each known network's site
// index and B = bits.Len32 of the largest index present. Two networks
// match iff both are known and every plane agrees, so a word's match
// mask is
//
//	knownA & knownB &^ (planeA0^planeB0 | … | planeA[B-1]^planeB[B-1])
//
// and a pair costs (B+1)·⌈N/64⌉ word ops — O(log sites · N/64) instead of
// N int32 compares. Every kernel is bit-identical to the scalar Gower loop
// in similarity.go; see DESIGN.md §12 for the exactness argument and
// bitset_test.go / FuzzPackedGower for the proof by adversarial example.

// packedRow is one vector in bit-sliced form: a typed view over a slab
// of words. Words are word-major — word k of the row occupies
// w[k*(planes+1) : (k+1)*(planes+1)] as [known, plane0 … plane(B-1)].
//
// Tail-mask invariant: bits at positions ≥ n are never set in any word.
// Packing only sets bit i for i < n, and the kernels only combine words
// of the same position with AND, OR and XOR, which cannot introduce new
// bits — so popcounts over whole words are exact without tail masking.
type packedRow struct {
	w      []uint64
	planes int
	// full reports that every network is known. It gates the
	// pre-summed-total fast path of the known-only weighted kernel.
	full bool
}

// sitePlanes returns the plane count B a row needs: the bit length of its
// largest known site index (an OR of the indexes has the same bit length
// as their maximum). It reads the indexes actually present, never the
// space's alphabet size — SetIndex accepts any index, and an undersized B
// would alias two sites.
func sitePlanes(assign []int32) int {
	var or uint32
	for _, a := range assign {
		if a != Unknown {
			or |= uint32(a)
		}
	}
	return bits.Len32(or)
}

// packInto packs assign into dst (⌈n/64⌉·(planes+1) words) with the given
// plane count, which must be at least sitePlanes(assign). Every word is
// built in registers and stored once; the slab never sees a
// read-modify-write per network and bit. Planes are gathered eight
// networks at a time: byte k of eight indexes is laid into one uint64,
// and one multiply collects bit q of all eight bytes into a byte of
// plane 8k+q. It reports whether every network is known.
func packInto(dst []uint64, assign []int32, planes int) (full bool) {
	known := 0
	var vals [64]uint32
	for base, o := 0, 0; base < len(assign); base, o = base+64, o+planes+1 {
		chunk := assign[base:min(base+64, len(assign))]
		clear(vals[len(chunk):])
		var kw uint64
		for j, a := range chunk {
			vals[j] = uint32(a)
			k := uint64(0) // branch-free: unknowns are data, not rare
			if a != Unknown {
				k = 1
			}
			kw |= k << (uint(j) & 63)
		}
		dst[o] = kw
		known += bits.OnesCount64(kw)
		for lane := 0; lane*8 < planes; lane++ {
			sh := uint(lane*8) & 31
			var xs [8]uint64 // xs[g] byte i = byte lane of index 8g+i
			for g := range xs {
				v := (*[8]uint32)(vals[g*8:])
				xs[g] = uint64(uint8(v[0]>>sh)) | uint64(uint8(v[1]>>sh))<<8 |
					uint64(uint8(v[2]>>sh))<<16 | uint64(uint8(v[3]>>sh))<<24 |
					uint64(uint8(v[4]>>sh))<<32 | uint64(uint8(v[5]>>sh))<<40 |
					uint64(uint8(v[6]>>sh))<<48 | uint64(uint8(v[7]>>sh))<<56
			}
			for q := 0; q < 8 && lane*8+q < planes; q++ {
				var w uint64
				for g, x := range xs {
					// The low bits of the eight bytes land, in order, in
					// the top byte of the product, with no carries.
					w |= ((x >> uint(q)) & 0x0101010101010101) * 0x0102040810204080 >> 56 << (uint(g*8) & 63)
				}
				// Unknown is -1, all ones: the known mask clears its bits.
				dst[o+1+lane*8+q] = w & kw
			}
		}
	}
	return known == len(assign) && len(assign) > 0
}

// packRow packs one vector at its own plane count. The monitor packs
// every appended or restored vector this way, so rows of one history may
// carry different B as the alphabet grows.
func packRow(assign []int32) packedRow {
	planes := sitePlanes(assign)
	w := make([]uint64, ((len(assign)+63)>>6)*(planes+1))
	return packedRow{w: w, planes: planes, full: packInto(w, assign, planes)}
}

// packSlab packs a series' vectors into one contiguous slab at a single
// plane count (the largest any row needs) and returns typed views over
// it: two allocations per call, however many rows.
func packSlab(vs []*Vector) []packedRow {
	planes := 0
	for _, v := range vs {
		planes = max(planes, sitePlanes(v.assign))
	}
	rowLen := ((len(vs[0].assign) + 63) >> 6) * (planes + 1)
	slab := make([]uint64, len(vs)*rowLen)
	rows := make([]packedRow, len(vs))
	for i, v := range vs {
		w := slab[i*rowLen : (i+1)*rowLen : (i+1)*rowLen]
		rows[i] = packedRow{w: w, planes: planes, full: packInto(w, v.assign, planes)}
	}
	return rows
}

// words returns the number of 64-network words in a row.
func (r *packedRow) words() int { return len(r.w) / (r.planes + 1) }

// masks returns word k's jointly-known mask and match mask.
func masks(a, b *packedRow, k int) (kw, mw uint64) {
	sa, sb := a.planes+1, b.planes+1
	x, y := a.w[k*sa:(k+1)*sa], b.w[k*sb:(k+1)*sb]
	kw = x[0] & y[0]
	return kw, kw &^ fold(x, y)
}

// fold returns the disagreement mask of two words (value planes from
// index 1): the OR over planes of x^y. Planes past the shorter word's B
// count as zero, so any set bit in the longer word's extra planes is a
// mismatch.
func fold(x, y []uint64) (d uint64) {
	if len(x) > len(y) {
		x, y = y, x
	}
	for p := 1; p < len(x); p++ {
		d |= x[p] ^ y[p]
	}
	for _, yp := range y[len(x):] {
		d |= yp
	}
	return d
}

// pairCounts returns the matched-network count |{i : a[i] == b[i] ≠
// Unknown}| and, when wantKnown is set, the jointly-known count — the
// integer numerator and known-only denominator of the uniform kernels.
// It is the matrix's hot loop: rows of one plane count (always the case
// within a slab) fold each word's planes in one unrolled expression for
// alphabets up to 128 sites; a fold loop costs about 1.6× as much there.
func pairCounts(a, b *packedRow, wantKnown bool) (match, known int) {
	if a.planes != b.planes {
		for k := range a.words() {
			kw, mw := masks(a, b, k)
			match += bits.OnesCount64(mw)
			known += bits.OnesCount64(kw)
		}
		return match, known
	}
	s := a.planes + 1
	x, y := a.w, b.w[:len(a.w)]
	for o := 0; o+s <= len(x); o += s {
		u, v := x[o:o+s:o+s], y[o:o+s:o+s]
		var d uint64
		switch len(u) {
		case 1:
		case 2:
			d = u[1] ^ v[1]
		case 3:
			d = (u[1] ^ v[1]) | (u[2] ^ v[2])
		case 4:
			d = (u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3])
		case 5:
			d = (u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3]) | (u[4] ^ v[4])
		case 6:
			d = (u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3]) | (u[4] ^ v[4]) | (u[5] ^ v[5])
		case 7:
			d = (u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3]) | (u[4] ^ v[4]) | (u[5] ^ v[5]) | (u[6] ^ v[6])
		case 8:
			d = (u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3]) | (u[4] ^ v[4]) | (u[5] ^ v[5]) | (u[6] ^ v[6]) | (u[7] ^ v[7])
		default:
			d = fold(u, v)
		}
		kw := u[0] & v[0]
		match += bits.OnesCount64(kw &^ d)
		if wantKnown {
			known += bits.OnesCount64(kw)
		}
	}
	return match, known
}

// packedPessimisticUniform: Φ = match / N with both operands exact
// integers (< 2^53), so the single division is bit-identical to the
// scalar loop's.
func packedPessimisticUniform(a, b *packedRow, n int) float64 {
	if n == 0 {
		return 0
	}
	match, _ := pairCounts(a, b, false)
	return float64(match) / float64(n)
}

// packedKnownOnlyUniform: Φ = match / |jointly known|, both exact
// integers.
func packedKnownOnlyUniform(a, b *packedRow) float64 {
	match, known := pairCounts(a, b, true)
	if known == 0 {
		return 0
	}
	return float64(match) / float64(known)
}

// packedWeights is the pre-summed form of a weight vector for the packed
// weighted kernels.
//
// total is the full-vector sum accumulated in ascending index order —
// exactly the float64 the scalar pessimistic loop's running `total`
// reaches on every call, so dividing by the precomputed value is
// bit-identical while removing N additions per pair. (A per-word
// pre-summed table cannot be used the same way: folding word partials
// into a non-zero accumulator reassociates the additions and moves the
// result by ulps relative to the scalar loop. The weighted kernels
// therefore walk the set bits of the match mask in ascending index order
// instead — the identical addition sequence the scalar loop performs,
// skipping the unmatched indexes for free.)
type packedWeights struct {
	w     []float64
	total float64
}

func newPackedWeights(w []float64) *packedWeights {
	pw := &packedWeights{w: w}
	for _, wi := range w {
		pw.total += wi
	}
	return pw
}

// sumBits adds the weights of mask's set bits, lowest first, onto acc.
func (pw *packedWeights) sumBits(acc float64, mask uint64, base int) float64 {
	for mask != 0 {
		acc += pw.w[base+bits.TrailingZeros64(mask)]
		mask &= mask - 1
	}
	return acc
}

// packedPessimisticWeighted: the scalar loop adds every weight into
// `total` (precomputed here) and the matched weights into `match` in
// ascending index order (reproduced here by walking match-mask bits
// lowest-first).
func packedPessimisticWeighted(a, b *packedRow, pw *packedWeights) float64 {
	if pw.total == 0 {
		return 0
	}
	var match float64
	for k := range a.words() {
		_, mw := masks(a, b, k)
		match = pw.sumBits(match, mw, k<<6)
	}
	return match / pw.total
}

// packedKnownOnlyWeighted: the scalar loop feeds two independent
// accumulators in ascending index order — total over jointly known
// networks, match over matched ones. Walking the known and match masks
// lowest-bit-first reproduces both sequences bit for bit. When both rows
// are fully known the total sequence is the full weight vector, so the
// pre-summed total substitutes exactly.
func packedKnownOnlyWeighted(a, b *packedRow, pw *packedWeights) float64 {
	full := a.full && b.full
	var match, total float64
	if full {
		total = pw.total
	}
	for k := range a.words() {
		kw, mw := masks(a, b, k)
		if !full {
			total = pw.sumBits(total, kw, k<<6)
		}
		match = pw.sumBits(match, mw, k<<6)
	}
	if total == 0 {
		return 0
	}
	return match / total
}

// packedKern is a monomorphic packed Gower kernel. Kernels are pure
// functions of their operands (no scratch state), so one selected kernel
// is safe to share across worker goroutines.
type packedKern func(a, b *packedRow) float64

// packedGowerKernel selects the packed kernel for (mode × weighting) over
// n networks. Weight pre-summing happens once here, never per pair.
func packedGowerKernel(w []float64, mode UnknownMode, n int) packedKern {
	validateMode(mode)
	switch {
	case mode == PessimisticUnknown && w == nil:
		return func(a, b *packedRow) float64 { return packedPessimisticUniform(a, b, n) }
	case mode == PessimisticUnknown:
		pw := newPackedWeights(w)
		return func(a, b *packedRow) float64 { return packedPessimisticWeighted(a, b, pw) }
	case mode == KnownOnly && w == nil:
		return packedKnownOnlyUniform
	default:
		pw := newPackedWeights(w)
		return func(a, b *packedRow) float64 { return packedKnownOnlyWeighted(a, b, pw) }
	}
}
