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
