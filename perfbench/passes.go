package main

import (
	"time"

	"kelp/internal/experiments"
)

// Every workload repeats a fixed unit of work, a pass, until the measured
// time is up, and reports medians over passes: a sweep, a fleet study, or
// a server round. In a traced run, untraced and traced passes alternate;
// the end-to-end numbers and the advance p99 come from the untraced ones
// and the difference between the two kinds is the tracing overhead.

// passStat is what one pass measured.
type passStat struct {
	traced      bool
	setup, wall float64 // seconds
	ops         int     // operations completed
	// lat holds operation latencies in seconds: experiments (sweep), fleet
	// cases (fleet), synchronous /advance requests (serve).
	lat []float64
}

// runPasses runs pass until the measured time is up, at least once, and
// twice in a traced run so it has one pass of each kind. Every pass starts
// from a collected heap.
func runPasses(o opts, tr *tracer, pass func(ptr *tracer, st *passStat) error) ([]passStat, error) {
	least := 1
	if tr != nil {
		least = 2
	}
	end := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var last time.Duration
	var out []passStat
	for i := 0; i < least || !time.Now().Add(last).After(end); i++ {
		var ptr *tracer
		if i%2 == 1 {
			ptr = tr
		}
		liveHeapMB()
		t0 := time.Now()
		st := passStat{traced: ptr != nil}
		if err := pass(ptr, &st); err != nil {
			return nil, err
		}
		last = time.Since(t0)
		out = append(out, st)
	}
	return out, nil
}

// fillMetrics reports the end-to-end metrics, the advance p99 and the
// tracing overhead. Percentiles are taken per pass, then the median across
// passes, so one disturbed pass moves none of them.
func fillMetrics(rep *report, passes []passStat, heap float64) {
	var setups, walls, rates, p50s, p99s []float64
	n := 0
	for _, p := range passes {
		setups = append(setups, p.setup)
		if p.traced {
			continue
		}
		walls = append(walls, p.wall)
		rates = append(rates, float64(p.ops)/p.wall)
		p50s = append(p50s, quantile(p.lat, 0.5))
		p99s = append(p99s, quantile(p.lat, 0.99))
		n += len(p.lat)
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["wall_s"] = median(walls)
	rep.e2e["req_per_s"] = median(rates)
	rep.e2e["advance_p50_ms"] = median(p50s) * 1e3
	rep.e2e["heap_mb"] = heap
	rep.layers["advance_p99_ms"] = median(p99s) * 1e3
	if traced := tracedWalls(passes); len(traced) > 0 {
		rep.layers["trace.overhead_share"] = (median(traced) - median(walls)) / median(walls)
	}
	rep.note("untraced pass walls (s): %.4g", walls)
	rep.note("samples: %d untraced passes, %d operation latencies; percentiles are medians of per-pass percentiles",
		len(walls), n)
}

// tracedWalls returns the wall times of the traced passes.
func tracedWalls(passes []passStat) []float64 {
	var out []float64
	for _, p := range passes {
		if p.traced {
			out = append(out, p.wall)
		}
	}
	return out
}

// setupReps is how many set-ups a sweep or fleet pass times in a row; one
// takes well under a microsecond, too little to time alone.
const setupReps = 100

// freshHarness is a sweep or fleet pass's set-up: the process-global
// warm-start cache is emptied, so every pass simulates what a new kelpbench
// process would instead of restoring the previous pass's snapshots, and a
// harness is built. It returns the harness and the mean seconds per set-up.
func freshHarness() (*experiments.Harness, float64) {
	var h *experiments.Harness
	t0 := time.Now()
	for i := 0; i < setupReps; i++ {
		experiments.ResetWarmCache()
		h = experiments.NewHarness()
	}
	return h, time.Since(t0).Seconds() / setupReps
}

// checkAttribution fails the run when the layer spans leave more than 1%
// of the measured wall time unexplained, or overlap it.
func checkAttribution(rep *report, what string, wall, attributed float64) {
	rest := wall - attributed
	rep.note("%s attribution: wall %.4fs, layers %.4fs, unattributed %.6fs", what, wall, attributed, rest)
	if rest < 0 || rest > 0.01*wall {
		rep.fail("%s attribution: layers sum to %.4fs of %.4fs wall", what, attributed, wall)
	}
}
