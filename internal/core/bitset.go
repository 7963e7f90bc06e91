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
		x := uint32(a)
		if a == Unknown { // a conditional move: unknowns are data, not rare
			x = 0
		}
		or |= x
	}
	return bits.Len32(or)
}

// packInto packs assign into dst (⌈n/64⌉·(planes+1) words) with the given
// plane count, which must be at least sitePlanes(assign). Every word is
// built in registers and stored once; the slab never sees a
// read-modify-write per network and bit. Planes are gathered eight
// networks at a time: byte k of eight indexes is laid into one uint64,
// and one multiply collects bit q of all eight bytes into a byte of
// plane 8k+q. The eight words of a chunk's 64 networks are eight
// variables, not an array, so they stay in registers while the planes
// are read off them. It reports whether every network is known.
func packInto(dst []uint64, assign []int32, planes int) (full bool) {
	known := 0
	var vals [64]int32
	for base, o := 0, 0; base < len(assign); base, o = base+64, o+planes+1 {
		chunk := assign[base:min(base+64, len(assign))]
		clear(vals[copy(vals[:], chunk):])
		kw := knownWord(chunk)
		dst[o] = kw
		known += bits.OnesCount64(kw)
		for lane := 0; lane*8 < planes; lane++ {
			sh := uint(lane*8) & 31
			x0, x1, x2, x3 := laneBytes(&vals, 0, sh), laneBytes(&vals, 1, sh), laneBytes(&vals, 2, sh), laneBytes(&vals, 3, sh)
			x4, x5, x6, x7 := laneBytes(&vals, 4, sh), laneBytes(&vals, 5, sh), laneBytes(&vals, 6, sh), laneBytes(&vals, 7, sh)
			for p := lane * 8; p < min(lane*8+8, planes); p++ {
				w := lowBits(x0) | lowBits(x1)<<8 | lowBits(x2)<<16 | lowBits(x3)<<24 |
					lowBits(x4)<<32 | lowBits(x5)<<40 | lowBits(x6)<<48 | lowBits(x7)<<56
				// Unknown is -1, all ones: the known mask clears its bits.
				dst[o+1+p] = w & kw
				x0, x1, x2, x3 = x0>>1, x1>>1, x2>>1, x3>>1
				x4, x5, x6, x7 = x4>>1, x5>>1, x6>>1, x7>>1
			}
		}
	}
	return known == len(assign) && len(assign) > 0
}

// laneBytes lays bits sh…sh+7 of indexes 8g … 8g+7 into one word, index
// 8g+i's in byte i. An arithmetic shift gives the same byte as a logical
// one for sh ≤ 24.
func laneBytes(vals *[64]int32, g int, sh uint) uint64 {
	v := (*[8]int32)(vals[g*8:])
	return uint64(uint8(v[0]>>sh)) | uint64(uint8(v[1]>>sh))<<8 |
		uint64(uint8(v[2]>>sh))<<16 | uint64(uint8(v[3]>>sh))<<24 |
		uint64(uint8(v[4]>>sh))<<32 | uint64(uint8(v[5]>>sh))<<40 |
		uint64(uint8(v[6]>>sh))<<48 | uint64(uint8(v[7]>>sh))<<56
}

// lowBits collects bit 0 of each byte of x into one byte, byte i's at
// bit i: the low bits of the eight bytes land, in order, in the top byte
// of the product, with no carries.
func lowBits(x uint64) uint64 {
	return (x & 0x0101010101010101) * 0x0102040810204080 >> 56
}

// knownWord returns the known mask of up to 64 assignments: bit j is set
// iff chunk[j] is not Unknown. The word is built in registers, with no
// branch on the data (unknowns are common), as two chains that each
// shift in one network at a time from the top: networks 0–31 and 32–63.
// A shift by a constant, with the two chains in flight at once, cost
// 0.6–0.76 of or-ing in each bit at a variable shift.
func knownWord(chunk []int32) uint64 {
	var lo, hi uint64
	for j := min(len(chunk), 32) - 1; j >= 0; j-- {
		lo = lo<<1 | isKnown(chunk[j])
	}
	for j := len(chunk) - 1; j >= 32; j-- {
		hi = hi<<1 | isKnown(chunk[j])
	}
	return hi<<32 | lo
}

// isKnown is 1 for a known assignment and 0 for Unknown, as a SETcc.
func isKnown(a int32) uint64 {
	if a != Unknown {
		return 1
	}
	return 0
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

// maskCounts returns the matched and jointly-known network counts of a
// and b word by word through masks: the path for rows whose plane counts
// differ, which only a monitor's history holds.
func maskCounts(a, b *packedRow) (match, known int) {
	for k := range a.words() {
		kw, mw := masks(a, b, k)
		match += bits.OnesCount64(mw)
		known += bits.OnesCount64(kw)
	}
	return match, known
}

// uniformPhi is a uniform kernel's Φ from a pair's exact integer counts
// (< 2^53): match/n (pessimistic) or match/known (known-only), one
// division, so it is bit-identical to the scalar loop's; 0 on a zero
// denominator.
func uniformPhi(match, known, n int, knownOnly bool) float64 {
	den := n
	if knownOnly {
		den = known
	}
	if den == 0 {
		return 0
	}
	return float64(match) / float64(den)
}

// uniformRow fills out[j] = Φ(a, rows[j]) for uniform weights. It is the
// matrix's hot loop. The plane count's loop is chosen once per row, each
// its own function so that its counters stay in registers, and a word
// group is a fixed-stride view: for B ≤ 7 (alphabets up to 128 sites)
// the fold over planes is one unrolled expression, which costs about
// 1/1.6 of the fold loop that runs above that. A row j whose plane count
// differs from a's (never the case within a slab) takes maskCounts.
func uniformRow(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	out = out[:len(rows)]
	for j := range rows {
		if rows[j].planes != a.planes {
			m, k := maskCounts(a, &rows[j])
			out[j] = uniformPhi(m, k, n, knownOnly)
		}
	}
	switch a.planes + 1 {
	case 2:
		uniformRow2(a, rows, out, n, knownOnly)
	case 3:
		uniformRow3(a, rows, out, n, knownOnly)
	case 4:
		uniformRow4(a, rows, out, n, knownOnly)
	case 5:
		uniformRow5(a, rows, out, n, knownOnly)
	case 6:
		uniformRow6(a, rows, out, n, knownOnly)
	case 7:
		uniformRow7(a, rows, out, n, knownOnly)
	case 8:
		uniformRow8(a, rows, out, n, knownOnly)
	default: // B = 0 has no plane to fold
		uniformRowFold(a, rows, out, n, knownOnly)
	}
}

// The row loops below count, for each row j of a's plane count, the
// matched networks and, for the known-only kernel, the jointly known
// ones; a branch on knownOnly reads cheaper than the popcount it skips.

func uniformRow2(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	x := a.w
	for j := range rows {
		if rows[j].planes != a.planes {
			continue
		}
		y := rows[j].w[:len(x)]
		var m, k int
		for o := 0; o+2 <= len(x); o += 2 {
			u, v := x[o:o+2:o+2], y[o:o+2:o+2]
			kw := u[0] & v[0]
			m += bits.OnesCount64(kw &^ (u[1] ^ v[1]))
			if knownOnly {
				k += bits.OnesCount64(kw)
			}
		}
		out[j] = uniformPhi(m, k, n, knownOnly)
	}
}

func uniformRow3(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	x := a.w
	for j := range rows {
		if rows[j].planes != a.planes {
			continue
		}
		y := rows[j].w[:len(x)]
		var m, k int
		for o := 0; o+3 <= len(x); o += 3 {
			u, v := x[o:o+3:o+3], y[o:o+3:o+3]
			kw := u[0] & v[0]
			m += bits.OnesCount64(kw &^ ((u[1] ^ v[1]) | (u[2] ^ v[2])))
			if knownOnly {
				k += bits.OnesCount64(kw)
			}
		}
		out[j] = uniformPhi(m, k, n, knownOnly)
	}
}

func uniformRow4(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	x := a.w
	for j := range rows {
		if rows[j].planes != a.planes {
			continue
		}
		y := rows[j].w[:len(x)]
		var m, k int
		for o := 0; o+4 <= len(x); o += 4 {
			u, v := x[o:o+4:o+4], y[o:o+4:o+4]
			kw := u[0] & v[0]
			m += bits.OnesCount64(kw &^ ((u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3])))
			if knownOnly {
				k += bits.OnesCount64(kw)
			}
		}
		out[j] = uniformPhi(m, k, n, knownOnly)
	}
}

func uniformRow5(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	x := a.w
	for j := range rows {
		if rows[j].planes != a.planes {
			continue
		}
		y := rows[j].w[:len(x)]
		var m, k int
		for o := 0; o+5 <= len(x); o += 5 {
			u, v := x[o:o+5:o+5], y[o:o+5:o+5]
			kw := u[0] & v[0]
			m += bits.OnesCount64(kw &^ ((u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3]) | (u[4] ^ v[4])))
			if knownOnly {
				k += bits.OnesCount64(kw)
			}
		}
		out[j] = uniformPhi(m, k, n, knownOnly)
	}
}

func uniformRow6(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	x := a.w
	for j := range rows {
		if rows[j].planes != a.planes {
			continue
		}
		y := rows[j].w[:len(x)]
		var m, k int
		for o := 0; o+6 <= len(x); o += 6 {
			u, v := x[o:o+6:o+6], y[o:o+6:o+6]
			kw := u[0] & v[0]
			m += bits.OnesCount64(kw &^ ((u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3]) | (u[4] ^ v[4]) | (u[5] ^ v[5])))
			if knownOnly {
				k += bits.OnesCount64(kw)
			}
		}
		out[j] = uniformPhi(m, k, n, knownOnly)
	}
}

func uniformRow7(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	x := a.w
	for j := range rows {
		if rows[j].planes != a.planes {
			continue
		}
		y := rows[j].w[:len(x)]
		var m, k int
		for o := 0; o+7 <= len(x); o += 7 {
			u, v := x[o:o+7:o+7], y[o:o+7:o+7]
			kw := u[0] & v[0]
			m += bits.OnesCount64(kw &^ ((u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3]) | (u[4] ^ v[4]) | (u[5] ^ v[5]) | (u[6] ^ v[6])))
			if knownOnly {
				k += bits.OnesCount64(kw)
			}
		}
		out[j] = uniformPhi(m, k, n, knownOnly)
	}
}

func uniformRow8(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	x := a.w
	for j := range rows {
		if rows[j].planes != a.planes {
			continue
		}
		y := rows[j].w[:len(x)]
		var m, k int
		for o := 0; o+8 <= len(x); o += 8 {
			u, v := x[o:o+8:o+8], y[o:o+8:o+8]
			kw := u[0] & v[0]
			m += bits.OnesCount64(kw &^ ((u[1] ^ v[1]) | (u[2] ^ v[2]) | (u[3] ^ v[3]) | (u[4] ^ v[4]) | (u[5] ^ v[5]) | (u[6] ^ v[6]) | (u[7] ^ v[7])))
			if knownOnly {
				k += bits.OnesCount64(kw)
			}
		}
		out[j] = uniformPhi(m, k, n, knownOnly)
	}
}

func uniformRowFold(a *packedRow, rows []packedRow, out []float64, n int, knownOnly bool) {
	x, s := a.w, a.planes+1
	for j := range rows {
		if rows[j].planes != a.planes {
			continue
		}
		y := rows[j].w[:len(x)]
		var m, k int
		for o := 0; o+s <= len(x); o += s {
			u, v := x[o:o+s:o+s], y[o:o+s:o+s]
			kw := u[0] & v[0]
			m += bits.OnesCount64(kw &^ fold(u, v))
			if knownOnly {
				k += bits.OnesCount64(kw)
			}
		}
		out[j] = uniformPhi(m, k, n, knownOnly)
	}
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

// pessimisticWeightedRow fills out[j] = Φ(a, rows[j]) for weights pw:
// the scalar loop adds every weight into `total` (precomputed here) and
// the matched weights into `match` in ascending index order (reproduced
// here by walking match-mask bits lowest-first).
func pessimisticWeightedRow(a *packedRow, rows []packedRow, out []float64, pw *packedWeights) {
	out = out[:len(rows)]
	for j := range rows {
		if pw.total == 0 {
			out[j] = 0
			continue
		}
		var match float64
		for k := range a.words() {
			_, mw := masks(a, &rows[j], k)
			match = pw.sumBits(match, mw, k<<6)
		}
		out[j] = match / pw.total
	}
}

// knownOnlyWeightedRow fills out[j] = Φ(a, rows[j]) for weights pw: the
// scalar loop feeds two independent accumulators in ascending index
// order — total over jointly known networks, match over matched ones.
// Walking the known and match masks lowest-bit-first reproduces both
// sequences bit for bit. When both rows are fully known the total
// sequence is the full weight vector, so the pre-summed total
// substitutes exactly.
func knownOnlyWeightedRow(a *packedRow, rows []packedRow, out []float64, pw *packedWeights) {
	out = out[:len(rows)]
	for j := range rows {
		b := &rows[j]
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
			out[j] = 0
			continue
		}
		out[j] = match / total
	}
}

// packedKern is the packed Gower kernel for one (mode × weighting),
// selected once by packedGowerKernel. It holds no scratch state, so one
// kernel is safe to share across worker goroutines.
type packedKern struct {
	n         int // networks: the pessimistic uniform denominator
	knownOnly bool
	pw        *packedWeights // nil for uniform weights
}

// packedGowerKernel selects the packed kernel for (mode × weighting) over
// n networks. Weight pre-summing happens once here, never per row.
func packedGowerKernel(w []float64, mode UnknownMode, n int) packedKern {
	validateMode(mode)
	k := packedKern{n: n, knownOnly: mode == KnownOnly}
	if w != nil {
		k.pw = newPackedWeights(w)
	}
	return k
}

// row fills out[j] = Φ(a, rows[j]) for every j: the engine's one call
// shape. A matrix tile fills row i as row(row i, rows[:i]), a monitor
// append its new Φ row as row(new, history), and a single detection
// pair is a call with one row.
func (k packedKern) row(a *packedRow, rows []packedRow, out []float64) {
	switch {
	case k.pw == nil:
		uniformRow(a, rows, out, k.n, k.knownOnly)
	case k.knownOnly:
		knownOnlyWeightedRow(a, rows, out, k.pw)
	default:
		pessimisticWeightedRow(a, rows, out, k.pw)
	}
}
