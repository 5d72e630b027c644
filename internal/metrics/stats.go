package metrics

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 when empty. The paper uses
// the arithmetic mean to average ML-task slowdowns (Fig. 13).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs, or 0 when empty or when any
// element is non-positive. The paper uses the harmonic mean to average CPU
// task throughputs (Fig. 13), which is the standard choice for rates.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return 0
		}
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// Window holds the last n values pushed, both in arrival order (a ring)
// and sorted, so a trailing percentile costs one sorted delete and one
// sorted insert per push instead of a copy and a sort. The cluster
// runtime's barrier timeout derives its straggler threshold from a
// trailing median: a trailing window tracks drift in the service's own
// step time, so the threshold adapts instead of being an absolute
// constant. Values must not be NaN. Storage grows with the values pushed,
// up to n.
type Window struct {
	n      int
	ring   []float64 // arrival order; ring[next] is the oldest once full
	next   int
	sorted []float64 // the same values, ascending
}

// NewWindow returns an empty window over the last n values (n >= 1).
func NewWindow(n int) *Window {
	if n < 1 {
		n = 1
	}
	return &Window{n: n}
}

// Len returns how many values the window holds (at most n).
func (w *Window) Len() int { return len(w.ring) }

// Push adds x, evicting the oldest value once the window is full.
func (w *Window) Push(x float64) {
	if len(w.ring) < w.n {
		w.ring = append(w.ring, x)
		w.sorted = append(w.sorted, 0)
	} else {
		old := w.ring[w.next]
		w.ring[w.next] = x
		w.next = (w.next + 1) % w.n
		i := sort.SearchFloat64s(w.sorted, old)
		copy(w.sorted[i:], w.sorted[i+1:])
	}
	// Insert into sorted[:len-1], whose last slot is free.
	last := len(w.sorted) - 1
	i := sort.SearchFloat64s(w.sorted[:last], x)
	copy(w.sorted[i+1:], w.sorted[i:last])
	w.sorted[i] = x
}

// Percentile returns the p-th percentile of the held values, exactly as
// Percentile over them would.
func (w *Window) Percentile(p float64) float64 { return PercentileSorted(w.sorted, p) }
