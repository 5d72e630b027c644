// Package metrics provides the measurement primitives the evaluation
// harness relies on: streaming latency histograms with percentile queries,
// throughput meters, windowed gauges, and summary statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-bucketed streaming histogram for positive values
// (typically request latencies in seconds). Buckets grow geometrically, so
// relative error of percentile queries is bounded by the growth factor.
type Histogram struct {
	min       float64 // lower bound of bucket 0
	growth    float64 // bucket width ratio
	logGrowth float64 // math.Log(growth), computed once for bucket
	counts    []uint64
	n         uint64
	sum       float64
	maxSeen   float64
	minSeen   float64
}

// NewHistogram returns a histogram covering [min, max] with the given
// per-bucket growth factor (e.g. 1.05 for ~5% relative error). Values below
// min land in the first bucket; values above max land in the last.
func NewHistogram(min, max, growth float64) (*Histogram, error) {
	if !(min > 0) || !(max > min) {
		return nil, fmt.Errorf("metrics: invalid histogram range [%v, %v]", min, max)
	}
	if !(growth > 1) {
		return nil, fmt.Errorf("metrics: invalid growth factor %v", growth)
	}
	nb := int(math.Ceil(math.Log(max/min)/math.Log(growth))) + 1
	return &Histogram{
		min:       min,
		growth:    growth,
		logGrowth: math.Log(growth),
		counts:    make([]uint64, nb),
		minSeen:   math.Inf(1),
	}, nil
}

// MustHistogram is NewHistogram that panics on invalid arguments.
func MustHistogram(min, max, growth float64) *Histogram {
	h, err := NewHistogram(min, max, growth)
	if err != nil {
		panic(err)
	}
	return h
}

// NewLatencyHistogram returns a histogram suitable for request latencies
// between 10 µs and 1000 s with ~2% relative error.
func NewLatencyHistogram() *Histogram {
	return MustHistogram(10e-6, 1000, 1.02)
}

func (h *Histogram) bucket(v float64) int {
	if v <= h.min {
		return 0
	}
	b := int(math.Log(v/h.min) / h.logGrowth)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	return b
}

// Observe records one value. Non-positive and non-finite values are counted
// in the extreme buckets rather than dropped, so Count stays meaningful.
func (h *Histogram) Observe(v float64) {
	switch {
	case math.IsNaN(v):
		return
	case v <= 0:
		h.counts[0]++
	case math.IsInf(v, 1):
		h.counts[len(h.counts)-1]++
	default:
		h.counts[h.bucket(v)]++
		h.sum += v
		if v > h.maxSeen {
			h.maxSeen = v
		}
		if v < h.minSeen {
			h.minSeen = v
		}
	}
	h.n++
}

// Max returns the largest finite observation, or 0 if there are none.
func (h *Histogram) Max() float64 {
	if math.IsInf(h.minSeen, 1) {
		return 0
	}
	return h.maxSeen
}

// Quantile returns the value at quantile q in [0, 1] (q=0.95 is the 95th
// percentile). It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// Upper edge of bucket i; clamp to the observed extremes so a
			// single-value histogram reports that value.
			v := h.min * math.Pow(h.growth, float64(i+1))
			if v > h.maxSeen && h.maxSeen > 0 {
				v = h.maxSeen
			}
			if v < h.minSeen {
				v = h.minSeen
			}
			return v
		}
	}
	return h.Max()
}

// Clone returns a deep copy of the histogram, used by simulation snapshots.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	out := *h
	out.counts = append([]uint64(nil), h.counts...)
	return &out
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n, h.sum, h.maxSeen = 0, 0, 0
	h.minSeen = math.Inf(1)
}

// Percentile returns the p-th percentile (p in [0,100]) of values, using
// linear interpolation on a sorted copy. It is exact (unlike Histogram) and
// intended for small result sets such as per-run summary values.
func Percentile(values []float64, p float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// PercentileSorted is Percentile over values already sorted ascending; it
// neither copies nor sorts.
func PercentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
