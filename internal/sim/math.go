package sim

import (
	"math"
	"math/bits"
)

// addNLoop is the run length below which AddN just adds: the fold's checks
// cost about as much as eight plain adds.
const addNLoop = 8

// AddN returns p after n sequential p += w, bit for bit, in time that grows
// with the binades the sum crosses rather than with n.
//
// Inside one binade [2^e, 2^(e+1)) the floats are the multiples of one
// grid step u = 2^(e-52). A positive p on that grid plus a positive w
// rounds to p plus the multiple of u nearest w, whatever p is, unless w
// lies exactly halfway between two multiples: then the tie rounds to the
// even neighbour, which depends on p. So while no add ties and the sum
// stays in p's binade, every add moves p's bit pattern up by the same
// integer c, and m adds are one integer add of m·c. Ties, binade crossings
// and every other input (zero, negative, subnormal or non-finite values)
// take a real add. A p that an add leaves unchanged stays so for good.
func AddN(p, w float64, n int) float64 {
	if n >= addNLoop {
		return addNFold(p, w, n)
	}
	for range n {
		p += w
	}
	return p
}

// addNFold is AddN for a run of at least addNLoop adds, kept apart so that
// AddN inlines.
func addNFold(p, w float64, n int) float64 {
	if w == 0 {
		// x+0 is x, except that -0+0 is +0; the second add changes nothing.
		return p + w
	}
	const mant = 1<<52 - 1
	for n > 0 {
		q := p + w
		bp, bq := math.Float64bits(p), math.Float64bits(q)
		if bq == bp {
			return p
		}
		// bp>>52 is the sign and exponent: equal for both and in [1, 0x7FE]
		// means a positive, normal, finite p whose sum stayed in its binade.
		if bp>>52 != bq>>52 || bp>>52 == 0 || bp>>52 >= 0x7FF || !(w > 0) {
			p = q
			n--
			continue
		}
		// q-p is exact, and so is w-(q-p): w is within half a step of q-p.
		if half := math.Float64frombits(bp&^mant) * 0x1p-53; w-(q-p) == half || w-(q-p) == -half {
			p = q
			n--
			continue
		}
		// The run stays in the binade while the mantissa has room for
		// every step; the common whole-run case needs no division.
		c, room := bq-bp, mant-bp&mant
		if hi, lo := bits.Mul64(uint64(n), c); hi == 0 && lo <= room {
			return math.Float64frombits(bp + lo)
		}
		k := room / c
		p = math.Float64frombits(bp + k*c)
		n -= int(k)
	}
	return p
}

// AddWhile returns p and k after the loop
//
//	for k = 0; k < n && beyond(p); k++ {
//		p += w
//	}
//
// bit for bit, where beyond(p) is p > bound when w has its sign bit set (p
// moves down towards bound) and p < bound otherwise. Like AddN, it takes
// time that grows with the binades p crosses rather than with k.
//
// AddN's binade argument holds whichever way the add moves p's magnitude:
// while no add ties, every add moves p's bit pattern by the same integer c.
// A growing magnitude may fill its binade's mantissa, a shrinking one may
// empty it down to one step above the binade's floor (an exact sum just
// below the floor would round on the finer grid of the binade beneath).
// The order of floats of one sign is the order of their bit patterns, so
// the first add of a run that starts on the near side of bound is found
// from the bit distance to bound.
func AddWhile(p, w, bound float64, n int) (float64, int) {
	down := math.Signbit(w)
	k := 0
	for k < n && (down && p > bound || !down && p < bound) {
		q := p + w
		bp, bq := math.Float64bits(p), math.Float64bits(q)
		if bq == bp {
			// p stays put, and so stays beyond bound, for the whole run.
			return p, n
		}
		m, bm := addWhileRun(p, w, q, bound, down, n-k)
		if m == 0 {
			p = q
			k++
			continue
		}
		p = math.Float64frombits(bm)
		k += m
	}
	return p, k
}

// addWhileRun returns how many of AddWhile's next n adds, the first of
// which takes p to q, stay in p's binade as bit steps of one constant, and
// the bit pattern they end on; 0 when the next add must be a real one.
// The caller has checked that p is beyond bound and that q differs from p.
func addWhileRun(p, w, q, bound float64, down bool, n int) (int, uint64) {
	const mant = 1<<52 - 1
	bp, bq := math.Float64bits(p), math.Float64bits(q)
	// Same sign and exponent, and a normal finite p.
	if e := bp >> 52 & 0x7FF; bp>>52 != bq>>52 || e == 0 || e == 0x7FF {
		return 0, 0
	}
	// q-p is exact, and so is w-(q-p): w is within half a step of q-p.
	if half := math.Float64frombits(bp&^mant) * 0x1p-53; w-(q-p) == half || w-(q-p) == -half {
		return 0, 0
	}
	var c, room uint64
	grow := bq > bp // the magnitude grows
	if grow {
		c, room = bq-bp, mant-bp&mant
	} else {
		c, room = bp-bq, bp&mant-1
	}
	steps := uint64(n)
	if hi, lo := bits.Mul64(steps, c); hi != 0 || lo > room {
		steps = room / c
		if steps == 0 {
			return 0, 0
		}
	}
	at := func(i uint64) uint64 {
		if grow {
			return bp + i*c
		}
		return bp - i*c
	}
	// The last add of the run starts at step steps-1; if that is still
	// beyond bound, so is every step before it.
	if last := math.Float64frombits(at(steps - 1)); down && last > bound || !down && last < bound {
		return int(steps), at(steps)
	}
	// bound lies inside the run: the adds stop at the first step that is
	// not beyond it, steps past p by the ordered distance over c, rounded
	// up. The distance is positive, since p itself is beyond bound.
	dist := orderedKey(p) - orderedKey(bound)
	if !down {
		dist = -dist
	}
	f := (dist-1)/c + 1
	return int(f), at(f)
}

// orderedKey maps a non-NaN float to an integer, as a uint64, whose signed
// order is the float order: the bit pattern for a positive float, its
// negated magnitude bits for a negative one, so both zeros map to 0. Two
// keys' difference, taken as uint64, is their exact distance when the
// first is the larger.
func orderedKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return -(b &^ (1 << 63))
	}
	return b
}
