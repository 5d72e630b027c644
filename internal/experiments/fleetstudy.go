package experiments

import (
	"fmt"

	"kelp/internal/clusterfaults"
	"kelp/internal/fleet"
	"kelp/internal/policy"
	"kelp/internal/workload"
)

// The fleet study: the paper's node-level QoS question asked at warehouse
// scale. A synthetic fleet of thousands of machines (background load drawn
// from the Fig. 2 census mixture, a Kelp-on and a Kelp-off population)
// hosts lock-step ML training jobs and best-effort batch tasks, placed by
// pluggable policies; the metric is fleet-wide ML Productivity Goodput
// (arxiv 2502.06982) — achieved useful training-step rate over the
// uncontended reference — alongside its availability / throughput /
// program components and the fleet's batch throughput. The study's
// contrasts: Kelp-on versus Kelp-off populations under identical
// colocation (node QoS converts batch colocation from an MPG tax into
// nearly free capacity), and placement policies from random scatter to
// Kelp-aware packing. See docs/FLEET.md.

// MachineMeasurer returns the fleet.Measurer backed by the harness's node
// simulation: each machine shape becomes one scenario cell — CNN3 as the
// ML worker (Kelp or Baseline policy per the shape), a DRAM antagonist at
// the shape's background level, and one Stitch instance per batch task
// (the last marked Backfill, mirroring the evaluation's mixes). Scenarios
// stay event-free — a shape's simulation is shared by many machines, so
// per-node events would repeat arbitrarily (fleet-level events come from
// fleet.Build/Tick instead).
//
// Measurements are memoized per harness, like Standalone baselines: every
// measurer the harness returns simulates each shape once, however many
// study cases or concurrent callers ask for it, and hands every caller the
// same read-only *fleet.Measurement. The harness's fields must therefore
// not change after the first measurement.
func (h *Harness) MachineMeasurer() fleet.Measurer {
	return func(shape fleet.MachineShape) (*fleet.Measurement, error) {
		return claim(&h.mu, &h.shapes, shape).do(func() (*fleet.Measurement, error) {
			return h.measureMachine(shape)
		})
	}
}

// measureMachine simulates one machine shape and extracts the fleet's
// measurement: the worker's step series and rate, and the summed batch
// throughput.
func (h *Harness) measureMachine(shape fleet.MachineShape) (*fleet.Measurement, error) {
	opts := h.Opts
	opts.MLCores = CNN3.MLCores()
	s := Scenario{
		ML:      CNN3,
		Policy:  policy.Baseline,
		Opts:    opts,
		Node:    h.Node,
		Warmup:  h.Warmup,
		Measure: h.Measure,
	}
	if shape.HasWorker {
		if shape.KelpOn {
			s.Policy = policy.Kelp
		}
		// Decorrelate members of a job: each seed variant is a distinct
		// machine with its own RNG streams.
		s.Node.Seed = h.Node.Seed + int64(shape.Variant)*7919
	} else {
		// Batch-only machines run the Baseline policy: Kelp engages where
		// an accelerated task needs protecting.
		s.NoML = true
	}
	if shape.HasBackground {
		s.CPU = append(s.CPU, CPUSpec{Kind: DRAMAggressor, Level: shape.Background})
	}
	for b := 0; b < shape.Batch; b++ {
		spec := CPUSpec{Kind: Stitch}
		if b == shape.Batch-1 {
			spec.Backfill = true
		}
		s.CPU = append(s.CPU, spec)
	}

	cfg := s.Node
	if !s.NoML {
		cfg = coherenceFor(s.Node, s.ML)
	}
	c, err := buildCell(cfg, s)
	if err != nil {
		return nil, err
	}
	c.n.Run(s.Warmup)
	meas := &fleet.Measurement{}
	var tr *workload.Training
	if !s.NoML {
		var ok bool
		if tr, ok = c.ml.(*workload.Training); !ok {
			return nil, fmt.Errorf("experiments: fleet worker task %T records no step times", c.ml)
		}
		// Enabled only after warm-up: the step series covers the measured
		// window.
		tr.RecordStepTimes(true)
	}
	c.n.StartMeasurement()
	c.n.Run(s.Measure)
	now := c.n.Now()
	if tr != nil {
		meas.StepsPerSec = tr.Throughput(now)
		meas.StepTimes = append([]float64(nil), tr.StepTimes()...)
	}
	// The batch tasks are the trailing shape.Batch entries of the CPU mix
	// (the background antagonist, when present, comes first).
	for _, t := range c.lowTasks[len(c.lowTasks)-shape.Batch:] {
		meas.BatchItemsPerSec += t.Throughput(now)
	}
	return meas, nil
}

// FleetStudyCase is one fleet configuration of the study.
type FleetStudyCase struct {
	Name         string
	Policy       fleet.Policy
	KelpFraction float64
}

// FleetStudyCases returns the study's rows: the Kelp-off/Kelp-on contrast
// under random placement, then the placement-policy ladder on a mixed
// fleet.
func FleetStudyCases() []FleetStudyCase {
	return []FleetStudyCase{
		{Name: "random/kelp-0%", Policy: fleet.PolicyRandom, KelpFraction: 0},
		{Name: "random/kelp-100%", Policy: fleet.PolicyRandom, KelpFraction: 1},
		{Name: "random/kelp-50%", Policy: fleet.PolicyRandom, KelpFraction: 0.5},
		{Name: "bw/kelp-50%", Policy: fleet.PolicyBandwidth, KelpFraction: 0.5},
		{Name: "distress/kelp-50%", Policy: fleet.PolicyDistress, KelpFraction: 0.5},
		{Name: "kelp-aware/kelp-50%", Policy: fleet.PolicyKelpAware, KelpFraction: 0.5},
	}
}

// FleetFaultSpec is the study's default fault regime: light crash and hang
// churn, so goodput is availability- and rework-sensitive without drowning
// the placement contrast.
func FleetFaultSpec(seed uint64) clusterfaults.Spec {
	return clusterfaults.Spec{Seed: seed, Crash: 0.02, Downtime: 1.5, Hang: 0.1, HangDur: 0.5}
}

// FleetStudyRow is one composed fleet outcome.
type FleetStudyRow struct {
	Case string
	// Result is the fleet's composed outcome (MPG, components,
	// populations, batch throughput).
	Result *fleet.Result
}

// FleetStudy runs the fleet study: every case builds, simulates and
// composes a fleet of the given size. A non-nil custom fault spec replaces
// the default churn regime (the kelpbench -cfaults flag). Cases run
// serially; each case's distinct machine shapes shard over the harness's
// worker pool, and a shape repeated across cases is served from the
// harness's measurement memo, so the study is byte-identical at any
// parallelism.
func FleetStudy(h *Harness, machines int, custom *clusterfaults.Spec) ([]FleetStudyRow, error) {
	faults := FleetFaultSpec(7)
	if custom != nil {
		faults = *custom
	}
	cases := FleetStudyCases()
	rows := make([]FleetStudyRow, 0, len(cases))
	for _, fc := range cases {
		res, err := h.fleetCase(fc, machines, faults)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FleetStudyRow{Case: fc.Name, Result: res})
	}
	return rows, nil
}

// fleetCase builds, simulates and composes one study case on the
// harness's memoized measurer.
func (h *Harness) fleetCase(fc FleetStudyCase, machines int, faults clusterfaults.Spec) (*fleet.Result, error) {
	cfg := fleet.DefaultConfig()
	cfg.Machines = machines
	cfg.BatchTasks = machines * 3 / 10
	cfg.Policy = fc.Policy
	cfg.KelpFraction = fc.KelpFraction
	cfg.Faults = faults
	cfg.Horizon = ClusterFaultHorizon
	cfg.Events = h.Events
	res, err := fleet.Run(cfg, h.MachineMeasurer(), h.workers())
	if err != nil {
		return nil, fmt.Errorf("fleet case %s: %w", fc.Name, err)
	}
	return res, nil
}

// FleetTable renders the fleet study.
func FleetTable(rows []FleetStudyRow, machines int) *Table {
	t := NewTable(fmt.Sprintf("Fleet study: ML Productivity Goodput across %d machines (8x8-worker CNN3 jobs + batch)", machines),
		"Case", "MPG", "Avail", "Thru", "Prog", "MPG on", "MPG off",
		"Wasted", "Batch/s", "Shapes", "Dead")
	for _, r := range rows {
		res := r.Result
		dead := 0
		for _, j := range res.Jobs {
			dead += j.DeadWorkers
		}
		onOff := func(v float64, workers int) any {
			if workers == 0 {
				return "n/a"
			}
			return v
		}
		t.AddRow(r.Case, res.MPG, res.AvailabilityGoodput, res.ThroughputGoodput,
			res.ProgramGoodput, onOff(res.MPGKelpOn, res.WorkersOn),
			onOff(res.MPGKelpOff, res.WorkersOff), res.WastedStepFraction,
			res.BatchItemsPerSec, res.DistinctShapes, dead)
	}
	return t
}
