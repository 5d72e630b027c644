package fleet

import (
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

// sortedCensus is RunCensus's sort-based reference: it sorts each
// machine's samples and reads the 99%-ile by index.
func sortedCensus(cfg CensusConfig) []float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, cfg.Machines)
	for m := range out {
		mean := censusMean(rng)
		samples := make([]float64, cfg.SamplesPerMachine)
		for i := range samples {
			samples[i] = censusSample(rng, mean)
		}
		sort.Float64s(samples)
		out[m] = samples[p99Index(len(samples))]
	}
	sort.Float64s(out)
	return out
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
