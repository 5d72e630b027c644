package fleet

import (
	"fmt"
	"sort"
)

// CensusConfig parameterizes the bandwidth census (Fig. 2): the
// distribution of 99%-ile memory bandwidth across a warehouse's servers
// over a day, showing that a meaningful slice of the fleet runs near
// memory saturation (16% of machines above 70% of peak in the paper).
//
// The census is synthetic: each machine's daily bandwidth profile is drawn
// from a mixture of mostly-idle, moderately-loaded, and saturated
// machines, calibrated so the CDF shape matches the paper's. The fleet
// runtime (Config/Run in this package) draws its per-machine load mix
// from the same distribution.
type CensusConfig struct {
	// Machines is the fleet size.
	Machines int
	// SamplesPerMachine is the number of bandwidth samples per machine over
	// the profiled day; the 99%-ile of these is the machine's reading.
	SamplesPerMachine int
	// Seed drives the synthetic draw.
	Seed int64
}

// DefaultCensusConfig profiles 10,000 machines at 288 samples (5-minute
// windows over a day).
func DefaultCensusConfig() CensusConfig {
	return CensusConfig{Machines: 10000, SamplesPerMachine: 288, Seed: 2}
}

// Validate reports whether the configuration is usable.
func (c CensusConfig) Validate() error {
	if c.Machines < 1 {
		return fmt.Errorf("fleet: Machines = %d", c.Machines)
	}
	if c.SamplesPerMachine < 1 {
		return fmt.Errorf("fleet: SamplesPerMachine = %d", c.SamplesPerMachine)
	}
	return nil
}

// Census is the per-machine 99%-ile bandwidth results, as fractions of peak.
type Census struct {
	// P99 holds one entry per machine, sorted ascending.
	P99 []float64
}

// RunCensus generates the census. It draws the same values as
// rand.New(rand.NewSource(cfg.Seed)) would, through censusStream.
func RunCensus(cfg CensusConfig) (*Census, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Census{P99: newCensusStream(cfg.Seed).census(cfg.Machines, cfg.SamplesPerMachine)}, nil
}

// census draws the machines' 99%-ile readings, each from its own mean and
// samples, and returns them sorted ascending.
func (s *censusStream) census(machines, samples int) []float64 {
	out := make([]float64, machines)
	// The 99%-ile is the k-th largest sample. Selecting it needs only the k
	// largest samples seen so far, kept ascending so top[0] is the answer;
	// sorting all of them is wasted work.
	k := samples - p99Index(samples)
	top := make([]float64, 0, k)
	for m := range out {
		mean := s.mean()
		top = top[:0]
		for range samples {
			top = keepLargest(top, k, s.sample(mean))
		}
		out[m] = top[0]
	}
	sort.Float64s(out)
	return out
}

// mean draws a machine's mean utilization. Machine archetypes: the paper's
// fleet mixes lightly-loaded web and storage machines with batch/analytics
// machines that saturate memory, so the mean draws from a three-mode
// mixture; the day's samples scatter around it, and the 99%-ile picks the
// busy tail of the day.
func (s *censusStream) mean() float64 {
	switch p := s.float64(); {
	case p < 0.45: // lightly loaded
		return 0.08 + 0.12*s.float64()
	case p < 0.85: // moderate
		return 0.20 + 0.30*s.float64()
	default: // heavy batch
		return 0.55 + 0.35*s.float64()
	}
}

// sample draws one of a machine's bandwidth samples, a fraction of peak in
// [0, 1]: clampUnit(mean + 0.18*norm()*mean + 0.05*float64()). More than
// 99% of samples take its fast path, which fuses norm's and float64's:
// both outputs lie in the current block, the normal draw's first try lands
// inside its strip, and the uniform is below 1. Any other case draws
// through norm and float64 from the same position. Against calling the
// two draws, the fused path cuts the census's time by about a third and
// sweep wall time by a tenth (docs/PERFORMANCE.md); TestCensusNormStrips
// pins it at every strip's boundary.
func (s *censusStream) sample(mean float64) float64 {
	if i := s.i; i <= rngLen-2 {
		j := int32(uint32(s.vec[i] >> 31))
		strip := j & 0x7F
		f := float64(int64(s.vec[i+1]&rngMask)) / (1 << 63)
		if absInt32(j) < kn[strip] && f != 1 {
			s.i = i + 2
			return clampUnit(mean + 0.18*(float64(j)*float64(wn[strip]))*mean + 0.05*f)
		}
	}
	return clampUnit(mean + 0.18*s.norm()*mean + 0.05*s.float64())
}

// clampUnit clamps v to [0, 1].
func clampUnit(v float64) float64 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// p99Index returns the index of the 99%-ile in n ascending samples.
func p99Index(n int) int {
	return min(int(0.99*float64(n)), n-1)
}

// keepLargest adds v to top, the ascending k largest values seen so far,
// evicting the smallest once top holds k. It never grows top past k. Most
// samples miss a full top; that test is small enough to inline into the
// sample loop, and insertLargest does the rest.
func keepLargest(top []float64, k int, v float64) []float64 {
	if len(top) == k && v <= top[0] {
		return top
	}
	return insertLargest(top, k, v)
}

// insertLargest puts v in its place in top, appending while top holds
// fewer than k values and otherwise evicting top[0], which v exceeds.
func insertLargest(top []float64, k int, v float64) []float64 {
	if len(top) < k {
		i := len(top)
		top = append(top, v)
		for ; i > 0 && top[i-1] > v; i-- {
			top[i] = top[i-1]
		}
		top[i] = v
		return top
	}
	i := 0
	for ; i+1 < k && top[i+1] < v; i++ {
		top[i] = top[i+1]
	}
	top[i] = v
	return top
}

// FractionAbove returns the fraction of machines whose 99%-ile bandwidth
// exceeds the given fraction of peak — the paper's "16% of machines above
// 70%" headline.
func (c *Census) FractionAbove(frac float64) float64 {
	if len(c.P99) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.P99, frac)
	return float64(len(c.P99)-i) / float64(len(c.P99))
}

// CDF returns (bandwidth fraction, fraction of machines <= it) pairs at the
// given bandwidth grid points, the series Fig. 2 plots.
func (c *Census) CDF(grid []float64) [][2]float64 {
	out := make([][2]float64, len(grid))
	for i, g := range grid {
		out[i] = [2]float64{g, 1 - c.FractionAbove(g)}
	}
	return out
}
