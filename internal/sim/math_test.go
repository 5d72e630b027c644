package sim

import (
	"math"
	"math/rand"
	"testing"
)

// addLoop is AddN's reference: n sequential adds.
func addLoop(p, w float64, n int) float64 {
	for range n {
		p += w
	}
	return p
}

// addNCases are inputs that reach each of AddN's branches: zero and
// signed-zero increments, negative, subnormal and non-finite values, tie
// increments (w an odd multiple of half a step) and runs that cross
// binades, overflow, or end on a binade's last float.
var addNCases = []struct{ p, w float64 }{
	{0, 1e-4},
	{1.25, 1e-4},
	{1e-4, 1e-4},
	{3.7e6, 0.1},
	{1, 0x1p-53},
	{1, 3 * 0x1p-53},
	{1, 0x1p-52 + 0x1p-53},
	{1.5, 5 * 0x1p-53},
	{math.Nextafter(2, 0), 1e-16},
	{math.Nextafter(2, 0), 0x1p-52},
	{2 - 64*0x1p-52, 0x1p-52},
	{-1, 1e-3},
	{1, -1e-3},
	{-1, -1e-3},
	{0, 0},
	{math.Copysign(0, -1), 0},
	{math.Copysign(0, -1), math.Copysign(0, -1)},
	{0, math.Copysign(0, -1)},
	{5, math.Copysign(0, -1)},
	{5e-324, 5e-324},
	{0x1p-1022, 0x1p-1074},
	{0x1p-1022, 3 * 0x1p-1074},
	{0x1p-1021, 0x1p-1074},
	{0, 0x1p-1060},
	{1.9 * 0x1p1023, 0x1p1020},
	{math.MaxFloat64, math.MaxFloat64},
	{math.Inf(1), 1},
	{1, math.Inf(1)},
	{math.Inf(1), math.Inf(-1)},
	{math.Inf(-1), 1},
	{math.NaN(), 1},
	{1, math.NaN()},
	{1e300, 1e-300},
}

// TestAddNMatchesLoop pins AddN bitwise against n sequential adds on every
// edge case above, and on random positive pairs whose ratio spans the
// binade-crossing, in-binade and no-op regimes.
func TestAddNMatchesLoop(t *testing.T) {
	check := func(p, w float64, n int) {
		t.Helper()
		if got, want := AddN(p, w, n), addLoop(p, w, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddN(%v, %v, %d) = %v (%#x), want %v (%#x)", p, w, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, c := range addNCases {
		for _, n := range []int{-1, 0, 1, 2, addNLoop - 1, addNLoop, 100, 4097} {
			check(c.p, c.w, n)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		w := math.Ldexp(1+rng.Float64(), rng.Intn(80)-40)
		p := math.Ldexp(1+rng.Float64(), rng.Intn(120)-40)
		if rng.Intn(4) == 0 {
			p = 0
		}
		check(p, w, rng.Intn(3000))
	}
}

// FuzzAddN compares AddN with n sequential adds, bit for bit.
func FuzzAddN(f *testing.F) {
	for _, c := range addNCases {
		f.Add(c.p, c.w, uint16(1000))
	}
	f.Fuzz(func(t *testing.T, p, w float64, n uint16) {
		if got, want := AddN(p, w, int(n)), addLoop(p, w, int(n)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddN(%v, %v, %d) = %v (%#x), want %v (%#x)", p, w, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// addWhileLoop is AddWhile's reference: the loop its comment spells out.
func addWhileLoop(p, w, bound float64, n int) (float64, int) {
	down := math.Signbit(w)
	k := 0
	for k < n && (down && p > bound || !down && p < bound) {
		p += w
		k++
	}
	return p, k
}

// addWhileCases are inputs that reach each of AddWhile's branches: both
// signs of p and w, ties, runs that fill or empty a binade, subnormal,
// zero and non-finite values, and fixed points.
var addWhileCases = []struct{ p, w float64 }{
	{5e-3, -1e-4},
	{0.0123, -8e-4},
	{1, -0x1p-53},
	{1, -3 * 0x1p-53},
	{1.5, -5 * 0x1p-53},
	{2, -1e-16},
	{math.Nextafter(2, 0), -0x1p-52},
	{1 + 64*0x1p-52, -0x1p-52},
	{1 + 0x1p-52, -0x1p-53},
	{-1, -1e-3},
	{-1, 1e-3},
	{-5e-3, 1e-4},
	{1.25, 1e-4},
	{1, 3 * 0x1p-53},
	{5, math.Copysign(0, -1)},
	{5, 0},
	{0, math.Copysign(0, -1)},
	{math.Copysign(0, -1), 0},
	{0x1p-1021, -0x1p-1074},
	{0x1p-1022, -3 * 0x1p-1074},
	{1e-310, -1e-320},
	{1e300, -1e-300},
	{math.MaxFloat64, -math.MaxFloat64},
	{math.Inf(1), -1},
	{1, math.Inf(-1)},
	{math.NaN(), -1},
	{1, math.NaN()},
}

// TestAddWhileMatchesLoop pins AddWhile bitwise against its loop on every
// edge case above, with bounds on either side of p, in its binade and past
// it, and on random pairs of both signs whose ratio spans the binade-
// crossing, in-binade and no-op regimes.
func TestAddWhileMatchesLoop(t *testing.T) {
	check := func(p, w, bound float64, n int) {
		t.Helper()
		gp, gk := AddWhile(p, w, bound, n)
		wp, wk := addWhileLoop(p, w, bound, n)
		if math.Float64bits(gp) != math.Float64bits(wp) || gk != wk {
			t.Fatalf("AddWhile(%v, %v, %v, %d) = %v (%#x), %d; want %v (%#x), %d",
				p, w, bound, n, gp, math.Float64bits(gp), gk, wp, math.Float64bits(wp), wk)
		}
	}
	bounds := func(p, w float64) []float64 {
		return []float64{
			math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), p,
			math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)),
			p + 37*w, p + 1000*w, p - w, p * 0.5, p * 0.75, p * 1.5, -p,
		}
	}
	for _, c := range addWhileCases {
		for _, b := range bounds(c.p, c.w) {
			for _, n := range []int{-1, 0, 1, 2, 7, 100, 4097} {
				check(c.p, c.w, b, n)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 4000 {
		w := math.Ldexp(1+rng.Float64(), rng.Intn(80)-40)
		p := math.Ldexp(1+rng.Float64(), rng.Intn(120)-40)
		if rng.Intn(2) == 0 {
			w = -w
		}
		if rng.Intn(4) == 0 {
			p = -p
		}
		n := rng.Intn(3000)
		var b float64
		switch rng.Intn(3) {
		case 0:
			b = p + float64(rng.Intn(3000))*w
		case 1:
			b = p + rng.NormFloat64()*float64(n)*w
		default:
			b = math.Ldexp(rng.Float64(), rng.Intn(120)-40)
		}
		check(p, w, b, n)
	}
}

// FuzzAddWhile compares AddWhile with its loop, bit for bit.
func FuzzAddWhile(f *testing.F) {
	for _, c := range addWhileCases {
		f.Add(c.p, c.w, c.p+100*c.w, uint16(1000))
		f.Add(c.p, c.w, 0.0, uint16(3000))
	}
	f.Fuzz(func(t *testing.T, p, w, bound float64, n uint16) {
		gp, gk := AddWhile(p, w, bound, int(n))
		wp, wk := addWhileLoop(p, w, bound, int(n))
		if math.Float64bits(gp) != math.Float64bits(wp) || gk != wk {
			t.Fatalf("AddWhile(%v, %v, %v, %d) = %v (%#x), %d; want %v (%#x), %d",
				p, w, bound, n, gp, math.Float64bits(gp), gk, wp, math.Float64bits(wp), wk)
		}
	})
}
