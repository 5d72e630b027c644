package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestCensusConfigValidate(t *testing.T) {
	if err := DefaultCensusConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (CensusConfig{Machines: 0, SamplesPerMachine: 1}).Validate(); err == nil {
		t.Error("zero machines accepted")
	}
	if err := (CensusConfig{Machines: 1, SamplesPerMachine: 0}).Validate(); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestRunCensusRejectsInvalid(t *testing.T) {
	if _, err := RunCensus(CensusConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCensusShapeMatchesPaper(t *testing.T) {
	c, err := RunCensus(DefaultCensusConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.P99) != DefaultCensusConfig().Machines {
		t.Fatalf("got %d machines", len(c.P99))
	}
	// The paper's headline: ~16% of machines exceed 70% of peak.
	above := c.FractionAbove(0.70)
	if above < 0.10 || above > 0.22 {
		t.Errorf("fraction above 70%% = %.3f, want ~0.16", above)
	}
	// Sanity: everything in [0, 1] and sorted.
	for i, v := range c.P99 {
		if v < 0 || v > 1 {
			t.Fatalf("P99[%d] = %v out of range", i, v)
		}
		if i > 0 && v < c.P99[i-1] {
			t.Fatal("P99 not sorted")
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	c, err := RunCensus(CensusConfig{Machines: 2000, SamplesPerMachine: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	cdf := c.CDF(grid)
	prev := -1.0
	for _, p := range cdf {
		if p[1] < prev {
			t.Fatalf("CDF not monotone: %v", cdf)
		}
		prev = p[1]
	}
	if cdf[len(cdf)-1][1] < cdf[0][1] {
		t.Error("CDF decreasing")
	}
}

func TestFractionAboveProperties(t *testing.T) {
	c, err := RunCensus(CensusConfig{Machines: 500, SamplesPerMachine: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.FractionAbove(-1); got != 1 {
		t.Errorf("FractionAbove(-1) = %v, want 1", got)
	}
	if got := c.FractionAbove(1.1); got != 0 {
		t.Errorf("FractionAbove(1.1) = %v, want 0", got)
	}
	f := func(a, b float64) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.FractionAbove(hi) <= c.FractionAbove(lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	cfg := CensusConfig{Machines: 300, SamplesPerMachine: 40, Seed: 9}
	a, _ := RunCensus(cfg)
	b, _ := RunCensus(cfg)
	for i := range a.P99 {
		if a.P99[i] != b.P99[i] {
			t.Fatal("same seed diverged")
		}
	}
	cfg.Seed = 10
	c, _ := RunCensus(cfg)
	same := true
	for i := range a.P99 {
		if a.P99[i] != c.P99[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestEmptyCensus(t *testing.T) {
	var c Census
	if c.FractionAbove(0.5) != 0 {
		t.Error("empty census should report 0")
	}
}

// oracleMean and oracleSample are the census's draws made through
// math/rand, the reference censusStream replays.
func oracleMean(rng *rand.Rand) float64 {
	switch p := rng.Float64(); {
	case p < 0.45:
		return 0.08 + 0.12*rng.Float64()
	case p < 0.85:
		return 0.20 + 0.30*rng.Float64()
	default:
		return 0.55 + 0.35*rng.Float64()
	}
}

func oracleSample(rng *rand.Rand, mean float64) float64 {
	v := mean + 0.18*rng.NormFloat64()*mean + 0.05*rng.Float64()
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// oracleCensus is RunCensus drawing each value from math/rand.
func oracleCensus(cfg CensusConfig) []float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, cfg.Machines)
	k := cfg.SamplesPerMachine - p99Index(cfg.SamplesPerMachine)
	top := make([]float64, 0, k)
	for m := range out {
		mean := oracleMean(rng)
		top = top[:0]
		for range cfg.SamplesPerMachine {
			top = keepLargest(top, k, oracleSample(rng, mean))
		}
		out[m] = top[0]
	}
	sort.Float64s(out)
	return out
}

// sortedCensus is RunCensus's sort-based reference: it sorts each
// machine's samples and reads the 99%-ile by index.
func sortedCensus(cfg CensusConfig) []float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, cfg.Machines)
	for m := range out {
		mean := oracleMean(rng)
		samples := make([]float64, cfg.SamplesPerMachine)
		for i := range samples {
			samples[i] = oracleSample(rng, mean)
		}
		sort.Float64s(samples)
		out[m] = samples[p99Index(len(samples))]
	}
	sort.Float64s(out)
	return out
}

// sameFloatBits reports whether a and b are bitwise equal.
func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCensusMatchesMathRand pins RunCensus bitwise to the same census drawn
// through math/rand, on seeds 0-31 (seed 0 is math/rand's special case)
// and at the figure's own configuration.
func TestCensusMatchesMathRand(t *testing.T) {
	cfgs := []CensusConfig{DefaultCensusConfig()}
	for seed := range int64(32) {
		cfgs = append(cfgs, CensusConfig{Machines: 500, SamplesPerMachine: 288, Seed: seed})
	}
	for _, cfg := range cfgs {
		c, err := RunCensus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloatBits(c.P99, oracleCensus(cfg)) {
			t.Errorf("%+v: P99 differs from the math/rand census", cfg)
		}
	}
}

// checkStream draws n values alternately through a censusStream and a
// math/rand Rand, the census's norm-then-uniform order, and reports the
// first that differs in its bits.
func checkStream(t *testing.T, s *censusStream, rng *rand.Rand, n int) {
	t.Helper()
	for d := range n {
		got, want, what := s.norm(), rng.NormFloat64(), "NormFloat64"
		if d%2 == 1 {
			got, want, what = s.float64(), rng.Float64(), "Float64"
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d (%s): got %v, want %v", d, what, got, want)
		}
	}
}

// FuzzCensusStream pins censusStream to rand.New(rand.NewSource(seed)) for
// any seed, across block refills.
func FuzzCensusStream(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, -1, 89482311, 1<<31 - 1, -1 << 63} {
		f.Add(seed, uint16(3000))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkStream(t, newCensusStream(seed), rand.New(rand.NewSource(seed)), int(draws))
	})
}

// scriptSource is a rand.Source that plays back a fixed list of 64-bit
// outputs.
type scriptSource struct {
	out []uint64
	i   int
}

func (s *scriptSource) Uint64() uint64 {
	u := s.out[s.i]
	s.i++
	return u
}
func (s *scriptSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
func (s *scriptSource) Seed(int64)   {}

// TestCensusNormStrips probes every ziggurat strip at its accept boundary:
// for both signs, the largest |j| the fast path accepts and the smallest
// it rejects, each followed by a uniform output near 0, at one half, just
// below 1 and rounding to 1 (which Float64 redraws), then filler outputs.
// Each probe goes through norm alone and through a one-sample census,
// whose sample takes its fused fast path; both must match math/rand bit
// for bit, and norm must consume as many outputs as NormFloat64. The
// probes must reach both slow paths: the base strip's tail (i == 0) and a
// wedge test.
func TestCensusNormStrips(t *testing.T) {
	filler := rand.New(rand.NewSource(1))
	// script returns a block whose outputs from index at are the probe j,
	// the uniform output u, and then filler.
	script := func(prefix []uint64, j int32, u uint64) [rngLen]uint64 {
		var out [rngLen]uint64
		copy(out[:], prefix)
		out[len(prefix)] = uint64(uint32(j))<<31 | filler.Uint64()&(1<<31-1)
		out[len(prefix)+1] = u
		for k := len(prefix) + 2; k < rngLen; k++ {
			out[k] = filler.Uint64()
		}
		return out
	}
	// A lightly loaded machine's mean, so the one sample stays inside
	// [0, 1] and carries the normal draw's bits.
	meanDraws := []uint64{1 << 62, 1 << 62}
	uniforms := []uint64{1 << 11, 1 << 62, 1<<63 - 1<<11, 1<<63 - 1}
	var tails, wedges int
	for i := range int32(128) {
		for _, sign := range []int64{1, -1} {
			// |j| is m, with m's low 7 bits chosen so that j&0x7F == i:
			// the nearest such m below kn[i] and the nearest at or above.
			m := int64(kn[i]&^0x7F | uint32(sign*int64(i))&0x7F)
			if m >= int64(kn[i]) {
				m -= 0x80
			}
			for _, mag := range []int64{m, m + 0x80} {
				if mag < 0 {
					continue
				}
				j := int32(sign * mag)
				if j&0x7F != i {
					t.Fatalf("strip %d: probe %d has low bits %d", i, j, j&0x7F)
				}
				if absInt32(j) >= kn[i] {
					if i == 0 {
						tails++
					} else {
						wedges++
					}
				}
				for _, u := range uniforms {
					vec := script(nil, j, u)
					s := &censusStream{vec: vec}
					src := &scriptSource{out: vec[:]}
					got, want := s.norm(), rand.New(src).NormFloat64()
					if math.Float64bits(got) != math.Float64bits(want) || s.i != src.i {
						t.Errorf("strip %d, j=%d, u=%#x: norm %v after %d outputs, want %v after %d",
							i, j, u, got, s.i, want, src.i)
					}

					vec = script(meanDraws, j, u)
					s = &censusStream{vec: vec}
					rng := rand.New(&scriptSource{out: vec[:]})
					got, want = s.census(1, 1)[0], oracleSample(rng, oracleMean(rng))
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("strip %d, j=%d, u=%#x: census sample %v, want %v", i, j, u, got, want)
					}
				}
			}
		}
	}
	if tails == 0 || wedges == 0 {
		t.Fatalf("probes reached %d base-strip tails and %d wedges; want both", tails, wedges)
	}
}

// TestCensusSelectMatchesSort pins that selecting each machine's 99%-ile
// from its largest samples reads exactly the value sorting would.
func TestCensusSelectMatchesSort(t *testing.T) {
	for _, n := range []int{1, 2, 99, 100, 288, 1000} {
		for _, seed := range []int64{1, 2, 3, 7, 42} {
			cfg := CensusConfig{Machines: 300, SamplesPerMachine: n, Seed: seed}
			c, err := RunCensus(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := sortedCensus(cfg); !reflect.DeepEqual(c.P99, want) {
				t.Errorf("samples=%d seed=%d: selected P99 differs from the sorted reference", n, seed)
			}
		}
	}
}
