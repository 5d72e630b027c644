package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	cases := []struct{ min, max, growth float64 }{
		{0, 1, 1.1}, {-1, 1, 1.1}, {1, 1, 1.1}, {2, 1, 1.1}, {1e-3, 1, 1.0}, {1e-3, 1, 0.5},
	}
	for _, c := range cases {
		if _, err := NewHistogram(c.min, c.max, c.growth); err == nil {
			t.Errorf("NewHistogram(%v, %v, %v) accepted invalid args", c.min, c.max, c.growth)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := MustHistogram(1e-4, 100, 1.01)
	rng := rand.New(rand.NewSource(7))
	var vals []float64
	for i := 0; i < 20000; i++ {
		// Log-normal-ish latencies around 5 ms.
		v := 5e-3 * math.Exp(rng.NormFloat64()*0.5)
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		if math.Abs(got-exact)/exact > 0.05 {
			t.Errorf("Quantile(%v) = %v, exact %v (>5%% error)", q, got, exact)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		h := NewLatencyHistogram()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			h.Observe(1e-4 * math.Exp(rng.Float64()*8))
		}
		prev := 0.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(math.NaN())
	if h.n != 0 {
		t.Error("NaN should be ignored")
	}
	h.Observe(-1)
	h.Observe(0)
	h.Observe(math.Inf(1))
	if h.n != 3 {
		t.Errorf("count = %d, want 3", h.n)
	}
	h.Observe(1e-9) // below range: first bucket
	h.Observe(1e9)  // above range: last bucket
	if h.n != 5 {
		t.Errorf("count = %d, want 5", h.n)
	}
}

// TestHistogramBucketMatchesFormula pins bucket, which divides by a
// logarithm computed once, to the per-call formula
// int(math.Log(v/min) / math.Log(growth)) on values around every bucket
// edge, for histograms built by NewHistogram and decoded from gob.
func TestHistogramBucketMatchesFormula(t *testing.T) {
	for _, c := range []struct{ min, max, growth float64 }{
		{10e-6, 1000, 1.02}, // NewLatencyHistogram
		{1e-6, 10, 1.05},
		{0.5, 3, 1.5},
	} {
		built := MustHistogram(c.min, c.max, c.growth)
		raw, err := built.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		decoded := new(Histogram)
		if err := decoded.GobDecode(raw); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*Histogram{built, decoded} {
			for e := range len(h.counts) + 1 {
				edge := c.min * math.Pow(c.growth, float64(e))
				for _, v := range []float64{
					math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)),
					edge * (1 - 1e-12), edge * (1 + 1e-12),
				} {
					want := 0
					if v > c.min {
						want = min(int(math.Log(v/c.min)/math.Log(c.growth)), len(h.counts)-1)
					}
					if got := h.bucket(v); got != want {
						t.Errorf("%+v: bucket(%v) = %d, want %d", c, v, got, want)
					}
				}
			}
		}
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.010)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		got := h.Quantile(q)
		if math.Abs(got-0.010)/0.010 > 0.03 {
			t.Errorf("Quantile(%v) = %v, want ~0.010", q, got)
		}
	}
	if mean := h.sum / float64(h.n); mean != 0.010 {
		t.Errorf("mean = %v", mean)
	}
	if h.Max() != 0.010 {
		t.Errorf("Max = %v", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.95) != 0 || h.sum != 0 || h.Max() != 0 || h.n != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.01)
	h.Observe(0.02)
	h.Reset()
	if h.n != 0 || h.Quantile(0.5) != 0 {
		t.Error("Reset did not clear histogram")
	}
}

func TestPercentileExact(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {200, 5},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeterRate(t *testing.T) {
	var m Meter
	m.Add(1.0, 10)
	m.Add(2.0, 10)
	if got := m.Rate(2.0); got != 10 {
		t.Errorf("Rate = %v, want 10", got)
	}
}

func TestMeterStartMeasurementExcludesWarmup(t *testing.T) {
	var m Meter
	m.Add(0.5, 100) // warmup
	m.StartMeasurement(1.0)
	m.Add(1.5, 10)
	m.Add(2.0, 10)
	if got := m.Total(); got != 20 {
		t.Errorf("Total = %v, want 20", got)
	}
	if got := m.Rate(3.0); got != 10 {
		t.Errorf("Rate = %v, want 10", got)
	}
}

func TestMeterZeroWindow(t *testing.T) {
	var m Meter
	m.StartMeasurement(1.0)
	if got := m.Rate(1.0); got != 0 {
		t.Errorf("Rate over zero window = %v, want 0", got)
	}
}

func TestMeanAndMedian(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Percentile([]float64{5, 1, 3}, 50); got != 3 {
		t.Errorf("median = %v", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); got != 1 {
		t.Errorf("HarmonicMean(1,1,1) = %v", got)
	}
	got := HarmonicMean([]float64{2, 4})
	want := 2 / (0.5 + 0.25)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("HarmonicMean(2,4) = %v, want %v", got, want)
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("HarmonicMean with zero should be 0")
	}
	if HarmonicMean(nil) != 0 {
		t.Error("HarmonicMean(nil) != 0")
	}
}

func TestHarmonicLEArith(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 5)
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*10
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A Window's percentiles equal Percentile over the last n values pushed,
// bit for bit, across fills, wraps and runs of tied values.
func TestWindowMatchesPercentile(t *testing.T) {
	x := uint64(88172645463325252)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Few distinct values, so the window is full of ties.
		return float64(x%7) * 0.125
	}
	for _, n := range []int{1, 2, 5, 16} {
		w := NewWindow(n)
		var all []float64
		for i := 0; i < 200; i++ {
			v := next()
			if i%11 == 0 {
				v = 0.1 + float64(i)*1e-3 // a distinct, unrepeated value
			}
			w.Push(v)
			all = append(all, v)
			last := all[max(0, len(all)-n):]
			if w.Len() != len(last) {
				t.Fatalf("n=%d push %d: Len = %d, want %d", n, i, w.Len(), len(last))
			}
			for _, p := range []float64{0, 25, 50, 90, 100} {
				if got, want := w.Percentile(p), Percentile(last, p); got != want {
					t.Fatalf("n=%d push %d: Percentile(%v) = %v, want %v over %v", n, i, p, got, want, last)
				}
			}
		}
	}
	if got := NewWindow(4).Percentile(50); got != 0 {
		t.Errorf("empty window percentile = %v, want 0", got)
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	vals := []float64{0.5, 3, 3, 1, 2, 2, 9}
	sorted := []float64{0.5, 1, 2, 2, 3, 3, 9}
	for _, p := range []float64{-1, 0, 10, 33, 50, 75, 99, 100, 101} {
		if got, want := PercentileSorted(sorted, p), Percentile(vals, p); got != want {
			t.Errorf("PercentileSorted(%v) = %v, want %v", p, got, want)
		}
	}
	if got := PercentileSorted(nil, 50); got != 0 {
		t.Errorf("PercentileSorted(nil) = %v", got)
	}
}

// A clone holds the same observations and is independent of its source:
// observing into either leaves the other unchanged. A nil histogram clones
// to nil.
func TestHistogramClone(t *testing.T) {
	if (*Histogram)(nil).Clone() != nil {
		t.Error("nil Clone is not nil")
	}
	h := NewLatencyHistogram()
	for _, v := range []float64{1e-3, 2e-3, 5e-3, 0.2} {
		h.Observe(v)
	}
	c := h.Clone()
	for _, q := range []float64{0.25, 0.5, 0.95, 1} {
		if c.Quantile(q) != h.Quantile(q) {
			t.Errorf("clone Quantile(%v) = %v, source %v", q, c.Quantile(q), h.Quantile(q))
		}
	}
	p95 := h.Quantile(0.95)
	for range 100 {
		c.Observe(9)
	}
	if h.Quantile(0.95) != p95 || h.n != 4 {
		t.Errorf("observing into the clone changed the source: n = %d, p95 = %v", h.n, h.Quantile(0.95))
	}
	h.Observe(1e-4)
	if c.n != 104 {
		t.Errorf("observing into the source changed the clone: n = %d", c.n)
	}
}
