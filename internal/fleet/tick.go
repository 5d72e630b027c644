package fleet

import (
	"fmt"

	"kelp/internal/cluster"
	"kelp/internal/pool"
)

// JobResult is one lock-step job's composed outcome.
type JobResult struct {
	// Job indexes the job.
	Job int
	// Workers is the job's worker count; KelpOn of them sit on Kelp-on
	// machines.
	Workers, KelpOn int
	// MPG is the job's ML Productivity Goodput: achieved useful step rate
	// over the uncontended reference rate.
	MPG float64
	// StepsPerSec is the fault-free composed lock-step rate.
	StepsPerSec float64
	// Availability, WastedStepFraction and DeadWorkers carry the fault
	// replay's outcome (1 / 0 / 0 when faults are disabled).
	Availability       float64
	WastedStepFraction float64
	DeadWorkers        int
}

// Result is the fleet's composed outcome.
type Result struct {
	// Policy echoes the placement policy.
	Policy Policy
	// Machines is the fleet size; DistinctShapes is how many machine
	// archetypes were actually simulated to cover it.
	Machines, DistinctShapes int
	// MPG is the fleet-wide ML Productivity Goodput: the worker-weighted
	// mean of the jobs' useful step rates over the uncontended reference
	// rate. Its diagnostic components follow — they are indicative
	// factors, not an exact factorization.
	MPG float64
	// AvailabilityGoodput is the worker-weighted mean availability
	// (1 − downtime fraction).
	AvailabilityGoodput float64
	// ThroughputGoodput is the worker-weighted mean interference-degraded
	// composed rate over the reference rate, capped at 1.
	ThroughputGoodput float64
	// ProgramGoodput is 1 − the worker-weighted mean wasted-step fraction.
	ProgramGoodput float64
	// MPGKelpOn / MPGKelpOff attribute productivity per population: each
	// worker's machine-level step rate over the reference, scaled by its
	// job's availability and program goodput, averaged over the workers
	// on Kelp-on (respectively Kelp-off) machines. Zero when a population
	// is empty (see WorkersOn / WorkersOff).
	MPGKelpOn, MPGKelpOff float64
	// WorkersOn / WorkersOff count workers per population.
	WorkersOn, WorkersOff int
	// WastedStepFraction is the worker-weighted mean wasted-step fraction.
	WastedStepFraction float64
	// BatchItemsPerSec is the fleet-wide summed batch-task throughput.
	BatchItemsPerSec float64
	// Jobs carries each job's composed outcome.
	Jobs []JobResult
}

// Tick composes the simulated fleet: every job's workers feed
// cluster.RunSeries (with per-job derived fault seeds when faults are
// configured), and the per-job reports aggregate into fleet-wide ML
// Productivity Goodput, its diagnostic components, and the batch
// throughput sum. Tick is pure composition — Simulate must have run — and
// is deterministic. Jobs replay concurrently on the worker count Simulate
// was given, and serially in index order when a recorder is attached, so
// the recorder sees a deterministic event stream. Reports aggregate in job
// order at any worker count, so every sum keeps one order.
func (f *Fleet) Tick() (*Result, error) {
	ref := f.measurement(ReferenceShape())
	if ref == nil {
		return nil, fmt.Errorf("fleet: not simulated (no reference measurement)")
	}
	if ref.StepsPerSec <= 0 {
		return nil, fmt.Errorf("fleet: reference machine measured %v steps/s", ref.StepsPerSec)
	}
	res := &Result{
		Policy:         f.cfg.Policy,
		Machines:       len(f.machines),
		DistinctShapes: len(f.shapes),
	}

	// Group worker machines per job (machine order is placement order —
	// deterministic).
	jobMachines := make([][]*Machine, f.cfg.Jobs)
	for i := range f.machines {
		m := &f.machines[i]
		if m.Job >= 0 {
			jobMachines[m.Job] = append(jobMachines[m.Job], m)
		}
		if m.Batch > 0 {
			shape := f.shapeOf(m)
			meas := f.measurement(shape)
			if meas == nil {
				return nil, fmt.Errorf("fleet: shape %v not simulated", shape)
			}
			res.BatchItemsPerSec += meas.BatchItemsPerSec
		}
	}

	workers := f.parallel
	if f.cfg.Events.Enabled() {
		workers = 1
	}
	reports, err := pool.Collect(workers, len(jobMachines), func(j int) (*cluster.Result, error) {
		return f.replayJob(j, jobMachines[j])
	})
	if err != nil {
		return nil, err
	}

	var (
		totalWorkers                       int
		sumMPG, sumAvail, sumThr, sumWaste float64
		sumOn, sumOff                      float64
	)
	for j, machines := range jobMachines {
		cr := reports[j]
		jr := JobResult{
			Job:          j,
			Workers:      len(machines),
			StepsPerSec:  cr.StepsPerSec,
			Availability: 1,
		}
		useful := cr.StepsPerSec
		if cr.Faults != nil {
			useful = cr.Faults.Goodput
			jr.Availability = cr.Faults.Availability
			jr.WastedStepFraction = cr.Faults.WastedStepFraction
			jr.DeadWorkers = cr.Faults.DeadWorkers
		}
		jr.MPG = useful / ref.StepsPerSec
		thr := cr.StepsPerSec / ref.StepsPerSec
		if thr > 1 {
			thr = 1
		}

		w := float64(jr.Workers)
		totalWorkers += jr.Workers
		sumMPG += jr.MPG * w
		sumAvail += jr.Availability * w
		sumThr += thr * w
		sumWaste += jr.WastedStepFraction * w

		// Population attribution: each worker's own machine-level step
		// rate over the reference, scaled by the job-level availability
		// and program goodput it is subject to.
		jobScale := jr.Availability * (1 - jr.WastedStepFraction)
		for _, m := range machines {
			wg := f.measurement(f.shapeOf(m)).StepsPerSec / ref.StepsPerSec
			if wg > 1 {
				wg = 1
			}
			wg *= jobScale
			if m.KelpOn {
				jr.KelpOn++
				res.WorkersOn++
				sumOn += wg
			} else {
				res.WorkersOff++
				sumOff += wg
			}
		}
		res.Jobs = append(res.Jobs, jr)
	}

	tw := float64(totalWorkers)
	res.MPG = sumMPG / tw
	res.AvailabilityGoodput = sumAvail / tw
	res.ThroughputGoodput = sumThr / tw
	res.WastedStepFraction = sumWaste / tw
	res.ProgramGoodput = 1 - res.WastedStepFraction
	if res.WorkersOn > 0 {
		res.MPGKelpOn = sumOn / float64(res.WorkersOn)
	}
	if res.WorkersOff > 0 {
		res.MPGKelpOff = sumOff / float64(res.WorkersOff)
	}
	return res, nil
}

// replayJob composes job j's workers, in placement order, through
// cluster.RunSeries. It reads the fleet and writes nothing, so jobs replay
// concurrently.
func (f *Fleet) replayJob(j int, machines []*Machine) (*cluster.Result, error) {
	members := make([]cluster.MemberSeries, len(machines))
	for w, m := range machines {
		shape := f.shapeOf(m)
		meas := f.measurement(shape)
		if meas == nil {
			return nil, fmt.Errorf("fleet: shape %v not simulated", shape)
		}
		members[w] = cluster.MemberSeries{
			StepsPerSec: meas.StepsPerSec,
			StepTimes:   meas.StepTimes,
		}
		if f.cfg.Faults.Degrade > 0 {
			deg := f.measurement(shape.Escalate())
			if deg == nil {
				return nil, fmt.Errorf("fleet: escalated shape %v not simulated", shape.Escalate())
			}
			members[w].DegradedStepTimes = deg.StepTimes
		}
	}
	scfg := cluster.SeriesConfig{
		Faults:   f.cfg.Faults,
		Recovery: f.cfg.Recovery,
		Horizon:  f.cfg.Horizon,
		Events:   f.cfg.Events,
	}
	if scfg.Faults.Enabled() {
		// Each job replays its own fault stream; the derived seed keeps
		// jobs decorrelated while the whole fleet stays reproducible.
		scfg.Faults.Seed += uint64(j) * 7919
	}
	cr, err := cluster.RunSeries(scfg, members)
	if err != nil {
		return nil, fmt.Errorf("fleet: job %d: %w", j, err)
	}
	return cr, nil
}
