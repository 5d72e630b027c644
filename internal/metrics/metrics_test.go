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
	if h.Count() != 0 {
		t.Error("NaN should be ignored")
	}
	h.Observe(-1)
	h.Observe(0)
	h.Observe(math.Inf(1))
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
	h.Observe(1e-9) // below range: first bucket
	h.Observe(1e9)  // above range: last bucket
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
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
	if h.Mean() != 0.010 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Max() != 0.010 {
		t.Errorf("Max = %v", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.95) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.01)
	h.Observe(0.02)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
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

func TestGaugeSmoothing(t *testing.T) {
	g := NewGauge(0.5)
	g.Set(10)
	if g.Value() != 10 {
		t.Errorf("first sample should initialize: %v", g.Value())
	}
	g.Set(20)
	if g.Value() != 15 {
		t.Errorf("Value = %v, want 15", g.Value())
	}
	if g.Last() != 20 {
		t.Errorf("Last = %v, want 20", g.Last())
	}
}

func TestGaugeBadAlphaFallsBackToRaw(t *testing.T) {
	g := NewGauge(0)
	g.Set(1)
	g.Set(9)
	if g.Value() != 9 {
		t.Errorf("Value = %v, want 9 (alpha=1 fallback)", g.Value())
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Append(0, 1)
	ts.Append(1, 3)
	if ts.Len() != 2 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if got := ts.MeanValue(); got != 2 {
		t.Errorf("MeanValue = %v, want 2", got)
	}
	var empty TimeSeries
	if empty.MeanValue() != 0 {
		t.Error("empty MeanValue should be 0")
	}
}

func TestMeanAndMedian(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %v", got)
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

func TestHarmonicLEGeoLEArith(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 5)
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*10
		}
		h, g, a := HarmonicMean(xs), GeoMean(xs), Mean(xs)
		return h <= g+1e-9 && g <= a+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{5}) != 0 {
		t.Error("Stddev of one value should be 0")
	}
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("Stddev = %v, want 2", got)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Error("GeoMean with negative should be 0")
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
