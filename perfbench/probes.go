package main

import (
	"fmt"
	"time"

	"kelp/internal/experiments"
	"kelp/internal/policy"
)

// probeReps is how many times each probe repeats; probes report medians.
const probeReps = 3

// probeCell times one reference cell, CNN1 plus a Stitch antagonist under
// Kelp at the harness windows, through experiments.Run: cold with warm
// start off, then restored from the warm-start cache. node.tick_us divides
// the cold cell by the ticks it simulated.
func probeCell(rep *report) error {
	h := experiments.NewHarness()
	opts := h.Opts
	opts.MLCores = experiments.CNN1.MLCores()
	s := experiments.Scenario{
		ML:      experiments.CNN1,
		CPU:     []experiments.CPUSpec{{Kind: experiments.Stitch}},
		Policy:  policy.Kelp,
		Opts:    opts,
		Node:    h.Node,
		Warmup:  h.Warmup,
		Measure: h.Measure,
	}
	timeRun := func() (float64, error) {
		liveHeapMB()
		t0 := time.Now()
		_, err := experiments.Run(s)
		return float64(time.Since(t0)) / 1e6, err
	}
	var cold, warm []float64
	defer experiments.SetWarmStart(true)
	for i := 0; i < probeReps; i++ {
		experiments.SetWarmStart(false)
		c, err := timeRun()
		if err != nil {
			return fmt.Errorf("reference cell: %w", err)
		}
		experiments.SetWarmStart(true)
		experiments.ResetWarmCache()
		if _, err := experiments.Run(s); err != nil { // fills the cache
			return fmt.Errorf("reference cell: %w", err)
		}
		w, err := timeRun()
		if err != nil {
			return fmt.Errorf("reference cell: %w", err)
		}
		cold, warm = append(cold, c), append(warm, w)
	}
	ticks := float64(s.Warmup+s.Measure) / float64(s.Node.Step)
	rep.layers["experiments.cell_cold_ms"] = median(cold)
	rep.layers["experiments.cell_warm_ms"] = median(warm)
	rep.layers["node.tick_us"] = median(cold) * 1e3 / ticks
	return nil
}
