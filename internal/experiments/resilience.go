package experiments

import (
	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/policy"
	"kelp/internal/pool"
)

// FaultCase is one named fault regime of the resilience study.
type FaultCase struct {
	Name string
	Spec faults.Spec
}

// FaultCases returns the resilience study's fault regimes, all rooted at
// the same seed: a clean control row, then one regime per fault surface —
// sensor dropout, stale replays, garbage counters (NaN + spikes), distress
// flapping, stuck/partial actuators, failing actuators, and controller
// stalls.
func FaultCases(seed uint64) []FaultCase {
	return []FaultCase{
		{Name: "none", Spec: faults.Spec{}},
		{Name: "dropout", Spec: faults.Spec{Seed: seed, Drop: 0.6}},
		{Name: "stale", Spec: faults.Spec{Seed: seed, Stale: 0.5}},
		{Name: "garbage", Spec: faults.Spec{Seed: seed, NaN: 0.3, Spike: 0.3}},
		{Name: "flap", Spec: faults.Spec{Seed: seed, Flap: 0.5}},
		{Name: "stuck-act", Spec: faults.Spec{Seed: seed, ActStick: 0.5, ActPartial: 0.2}},
		{Name: "fail-act", Spec: faults.Spec{Seed: seed, ActFail: 0.5}},
		{Name: "stall", Spec: faults.Spec{Seed: seed, Stall: 0.5}},
	}
}

// ResilienceRow is one cell of the resilience study: one fault regime
// under one managed policy, CNN1 + the Stitch mix.
type ResilienceRow struct {
	Fault  string
	Policy policy.Kind
	// MLPerf is ML throughput normalized to the fault-free standalone run
	// (1.0 = no loss): the hi-priority task must keep running whatever the
	// injector does to the controller.
	MLPerf float64
	// CPUUnits is raw low-priority throughput.
	CPUUnits float64
	// Injected is the injector's total fault count.
	Injected uint64
	// Rejects / ActErrors count sensor.reject and actuate.error events.
	Rejects, ActErrors int
	// Enters / Exits count degrade.enter and degrade.exit transitions.
	Enters, Exits int
	// DegradedAtEnd reports whether the controller finished the run still
	// in fail-safe mode.
	DegradedAtEnd bool
}

// Resilience runs the fault-injection study: every fault regime under the
// two managed policies with a feedback controller (KP and CT), measuring
// how the hardened control loop degrades and recovers. Each cell gets its
// own recorder and injector, so cells are independent and the study runs
// on the harness's worker pool.
func Resilience(h *Harness, seed uint64) ([]ResilienceRow, error) {
	const ml = CNN1
	mix, err := MixFor(Stitch)
	if err != nil {
		return nil, err
	}
	base, err := h.Standalone(ml)
	if err != nil {
		return nil, err
	}
	cases := FaultCases(seed)
	kinds := []policy.Kind{policy.Kelp, policy.CoreThrottle}
	type cell struct {
		fc FaultCase
		k  policy.Kind
	}
	var cells []cell
	for _, fc := range cases {
		for _, k := range kinds {
			cells = append(cells, cell{fc, k})
		}
	}
	return pool.Collect(h.workers(), len(cells), func(i int) (ResilienceRow, error) {
		c := cells[i]
		rec := events.MustNew(events.DefaultCapacity)
		opts := h.Opts
		opts.MLCores = ml.MLCores()
		r, err := Run(Scenario{
			ML:      ml,
			CPU:     mix,
			Policy:  c.k,
			Opts:    opts,
			Node:    h.Node,
			Warmup:  h.Warmup,
			Measure: h.Measure,
			Events:  rec,
			Faults:  c.fc.Spec,
		})
		if err != nil {
			return ResilienceRow{}, err
		}
		row := ResilienceRow{
			Fault:         c.fc.Name,
			Policy:        c.k,
			CPUUnits:      r.CPUUnits,
			Injected:      r.Faults.Total,
			Rejects:       len(rec.Since(0, events.SensorReject)),
			ActErrors:     len(rec.Since(0, events.ActuateError)),
			Enters:        len(rec.Since(0, events.DegradeEnter)),
			Exits:         len(rec.Since(0, events.DegradeExit)),
			DegradedAtEnd: r.Controls.Degraded,
		}
		if base.MLThroughput > 0 {
			row.MLPerf = r.MLThroughput / base.MLThroughput
		}
		return row, nil
	})
}

// ResilienceTable renders the resilience study.
func ResilienceTable(rows []ResilienceRow) *Table {
	t := NewTable("Resilience: fault injection on the control loop (CNN1+Stitch)",
		"Fault", "Policy", "ML perf", "CPU units", "Injected",
		"Rejects", "ActErrs", "Enters", "Exits", "Degraded@end")
	for _, r := range rows {
		t.AddRow(r.Fault, r.Policy, r.MLPerf, r.CPUUnits, r.Injected,
			r.Rejects, r.ActErrors, r.Enters, r.Exits, r.DegradedAtEnd)
	}
	return t
}
