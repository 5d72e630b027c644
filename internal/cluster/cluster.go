// Package cluster models distributed synchronous training (the paper's
// Fig. 1 workflow and §II-D): a set of workers, each an accelerated node
// with a host-side parameter-server share, training in lock step. Every
// global step completes only when the slowest worker finishes — Dean &
// Barroso's "tail at scale" amplification, which the paper cites as the
// reason per-node interference is magnified at service level.
//
// Each worker is simulated as an independent node (deterministic, seeded);
// the lock-step barrier is composed afterwards from the workers' recorded
// step-completion times. Worker simulations are embarrassingly parallel
// and fan out across internal/pool's bounded worker pool; results are
// collected in input order, so output is byte-identical at any
// parallelism.
//
// On top of the fault-free composition, the package carries a
// fault-tolerant lock-step runtime (recovery.go): internal/clusterfaults
// injects worker crashes, barrier hangs and mid-run interference
// escalation, and the recovery layer answers with periodic checkpointing,
// a barrier timeout with a configurable straggler policy, and bounded
// restart retry with backoff — turning the reproduction into a goodput
// study (useful steps per wall-clock second net of downtime and rework).
// With a disabled fault spec the runtime never engages and Run's results
// are byte-identical to the fault-free composition.
package cluster

import (
	"fmt"
	"math"

	"kelp/internal/clusterfaults"
	"kelp/internal/events"
	"kelp/internal/metrics"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/pool"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// WorkerSpec configures one worker node.
type WorkerSpec struct {
	// Aggressor colocates a DRAM antagonist with the worker.
	Aggressor bool
	Level     workload.Level
	// Policy optionally applies an isolation configuration on the worker
	// (policy.Baseline by default). Protecting the straggler node recovers
	// the whole lock-step service — the paper's service-level motivation
	// run end to end.
	Policy policy.Kind
}

// Config parameterizes a cluster run.
type Config struct {
	// Workers describes each worker node.
	Workers []WorkerSpec
	// Node is the per-worker hardware configuration.
	Node node.Config
	// MLCores reserved for the training task on each worker.
	MLCores int
	// Warmup and Measure bound the per-worker simulation.
	Warmup, Measure sim.Duration
	// MakeTask constructs the per-worker training task (for example
	// workload.NewCNN3).
	MakeTask func() (*workload.Training, error)
	// Parallel bounds how many worker simulations run concurrently
	// (0 = one per available CPU, 1 = serial). Every worker owns a fresh
	// node with its own seeded RNG streams and results are collected in
	// input order, so output is identical at any setting.
	Parallel int
	// Faults injects cluster-level failures — worker crash/restart,
	// barrier hangs, mid-run interference escalation — into the lock-step
	// composition. The zero Spec disables injection entirely: the
	// fault-tolerant runtime never engages and Run's results are
	// byte-identical to the plain composition.
	Faults clusterfaults.Spec
	// Recovery parameterizes the defensive layer (checkpoint cadence,
	// straggler policy, restart retry). The zero value selects
	// DefaultRecovery; only consulted when Faults is enabled.
	Recovery RecoveryConfig
	// Horizon is the simulated cluster wall-clock the fault-tolerant
	// replay covers, seconds; 0 selects DefaultHorizon. Only consulted
	// when Faults is enabled.
	Horizon sim.Duration
	// Events, when non-nil, receives cluster-sourced flight-recorder
	// events (worker.crash, worker.restart, checkpoint.save, ...). The
	// recorder is passive: attaching one never changes results.
	Events *events.Recorder
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("cluster: no workers")
	}
	if c.MLCores < 1 {
		return fmt.Errorf("cluster: MLCores = %d", c.MLCores)
	}
	if c.Warmup <= 0 || c.Measure <= 0 {
		return fmt.Errorf("cluster: warmup/measure must be positive")
	}
	if c.MakeTask == nil {
		return fmt.Errorf("cluster: MakeTask required")
	}
	if err := c.series().Validate(); err != nil {
		return err
	}
	return c.Node.Validate()
}

// series is the fault/recovery part of the configuration, the form
// RunSeries takes.
func (c Config) series() SeriesConfig {
	return SeriesConfig{
		Faults:   c.Faults,
		Recovery: c.Recovery,
		Horizon:  c.Horizon,
		Events:   c.Events,
	}
}

// WorkerResult is one worker's standalone outcome.
type WorkerResult struct {
	// StepsPerSec is the worker's own training rate.
	StepsPerSec float64
	// StepTimes are completion timestamps within the measured interval.
	StepTimes []float64
}

// Result is the cluster outcome.
type Result struct {
	Workers []WorkerResult
	// StepsPerSec is the lock-step service rate (gated by the slowest
	// worker each step).
	StepsPerSec float64
	// P95StepTime is the 95%-ile global step duration, seconds.
	P95StepTime float64
	// MeanStepTime is the mean global step duration, seconds.
	MeanStepTime float64
	// Amplification is the service-level slowdown versus the mean worker:
	// mean worker rate / lock-step rate (>= 1; the tail-at-scale factor).
	Amplification float64
	// Faults carries the fault-tolerant runtime's outcome (goodput,
	// wasted work, recovery times). Nil unless Config.Faults is enabled,
	// so fault-free results stay byte-identical to the plain composition.
	Faults *FaultReport
}

// workerSim is one worker's simulation outcome plus the step-duration
// series the fault-tolerant replay consumes.
type workerSim struct {
	WorkerResult
	// durs are per-step durations derived from StepTimes, cycled by the
	// replay to extend the schedule to the horizon.
	durs []float64
	// degDurs is the same worker re-simulated under escalated
	// interference (nil unless the spec enables degrade faults).
	degDurs []float64
}

// Run simulates all workers and composes the lock-step service rate through
// RunSeries. When the fault spec is enabled, the fault-tolerant runtime then
// replays the lock-step schedule under injected failures and attaches a
// FaultReport.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	members, err := pool.Collect(cfg.Parallel, len(cfg.Workers), func(i int) (MemberSeries, error) {
		m, err := simulateMember(cfg, i)
		if err != nil {
			return MemberSeries{}, fmt.Errorf("worker %d: %w", i, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return RunSeries(cfg.series(), members)
}

// MemberSeries is one lock-step member's measured behaviour, supplied by a
// caller that ran the member's simulation itself — the fleet runtime
// (internal/fleet) measures machines once per distinct configuration and
// feeds every job member placed on such a machine the same series.
type MemberSeries struct {
	// StepsPerSec is the member's standalone training rate.
	StepsPerSec float64
	// StepTimes are step-completion timestamps within the member's
	// measured interval (at least two, so a duration can be derived).
	StepTimes []float64
	// DegradedStepTimes optionally carries the same member re-measured
	// under escalated interference — the series the fault replay switches
	// to when a degrade fault fires. Required when Faults.Degrade > 0.
	DegradedStepTimes []float64
}

// SeriesConfig parameterizes RunSeries: the fault/recovery machinery of a
// lock-step composition whose members were simulated elsewhere.
type SeriesConfig struct {
	// Faults injects cluster-level failures; the zero Spec disables
	// injection and RunSeries reduces to the plain composition.
	Faults clusterfaults.Spec
	// Recovery parameterizes the defensive layer; zero selects
	// DefaultRecovery. Only consulted when Faults is enabled.
	Recovery RecoveryConfig
	// Horizon is the simulated wall-clock the fault replay covers,
	// seconds; 0 selects DefaultHorizon.
	Horizon sim.Duration
	// Events, when non-nil, receives cluster-sourced events.
	Events *events.Recorder
}

// Validate reports whether the configuration is usable.
func (c SeriesConfig) Validate() error {
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Recovery.Validate(); err != nil {
		return err
	}
	return validHorizon(c.Horizon)
}

// validHorizon rejects a negative or non-finite replay horizon: a NaN one
// would turn every rate in the report into NaN, and an infinite one would
// run the replay out of its iteration budget.
func validHorizon(h sim.Duration) error {
	if math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
		return fmt.Errorf("cluster: horizon = %v, want a finite duration >= 0", h)
	}
	return nil
}

// RunSeries composes the lock-step service from externally measured member
// series and, when the fault spec is enabled, replays the schedule under
// injected failures. It is the entry point for callers that own their
// member simulations — the fleet runtime deduplicates machine simulations
// across thousands of machines and composes each job's workers here.
func RunSeries(cfg SeriesConfig, members []MemberSeries) (*Result, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no members")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults.Degrade > 0 {
		for i, m := range members {
			if len(m.DegradedStepTimes) == 0 {
				return nil, fmt.Errorf("cluster: member %d has no degraded series but Faults.Degrade > 0", i)
			}
		}
	}
	sims, err := memberSims(cfg, members)
	if err != nil {
		return nil, err
	}
	results := make([]WorkerResult, len(sims))
	for i, s := range sims {
		results[i] = s.WorkerResult
	}
	res, err := compose(results)
	if err != nil {
		return nil, err
	}
	if cfg.Faults.Enabled() {
		inj, err := clusterfaults.NewInjector(cfg.Faults, len(sims))
		if err != nil {
			return nil, err
		}
		rep, err := replay(cfg, sims, inj)
		if err != nil {
			return nil, err
		}
		res.Faults = rep
	}
	return res, nil
}

// memberSims derives each member's step-duration series, the form the
// composition and the fault replay consume.
func memberSims(cfg SeriesConfig, members []MemberSeries) ([]*workerSim, error) {
	sims := make([]*workerSim, len(members))
	for i, m := range members {
		ws := &workerSim{WorkerResult: WorkerResult{
			StepsPerSec: m.StepsPerSec,
			StepTimes:   m.StepTimes,
		}}
		var err error
		ws.durs, err = stepDurations(m.StepTimes)
		if err != nil && cfg.Faults.Enabled() {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		if len(m.DegradedStepTimes) > 0 {
			ws.degDurs, err = stepDurations(m.DegradedStepTimes)
			if err != nil {
				return nil, fmt.Errorf("member %d degraded series: %w", i, err)
			}
		}
		sims[i] = ws
	}
	return sims, nil
}

// compose builds the lock-step service result from per-worker outcomes:
// global step k completes when the slowest worker finishes its k-th step.
// Workers with unequal step counts truncate the composition to the
// shortest series.
func compose(workers []WorkerResult) (*Result, error) {
	res := &Result{Workers: workers}
	minSteps := len(workers[0].StepTimes)
	for _, w := range workers {
		if len(w.StepTimes) < minSteps {
			minSteps = len(w.StepTimes)
		}
	}
	if minSteps < 2 {
		return nil, fmt.Errorf("cluster: too few steps measured (%d)", minSteps)
	}
	durations := make([]float64, 0, minSteps-1)
	prev := 0.0
	for k := 0; k < minSteps; k++ {
		barrier := 0.0
		for _, w := range workers {
			if w.StepTimes[k] > barrier {
				barrier = w.StepTimes[k]
			}
		}
		if k > 0 {
			durations = append(durations, barrier-prev)
		}
		prev = barrier
	}
	res.MeanStepTime = metrics.Mean(durations)
	res.P95StepTime = metrics.Percentile(durations, 95)
	if res.MeanStepTime > 0 {
		res.StepsPerSec = 1 / res.MeanStepTime
	}
	rates := make([]float64, 0, len(workers))
	for _, w := range workers {
		rates = append(rates, w.StepsPerSec)
	}
	if mean := metrics.Mean(rates); res.StepsPerSec > 0 && mean > 0 {
		res.Amplification = mean / res.StepsPerSec
	}
	return res, nil
}

// simulateMember simulates worker idx into the series RunSeries composes.
// When the fault spec can escalate interference it also re-simulates the
// worker one interference level up (the degrade fault's step-time series),
// so an isolation policy measurably shrinks what escalation costs.
func simulateMember(cfg Config, idx int) (MemberSeries, error) {
	spec := cfg.Workers[idx]
	m, err := simulateWorker(cfg, idx, spec)
	if err != nil {
		return MemberSeries{}, err
	}
	if cfg.Faults.Degrade > 0 {
		d, err := simulateWorker(cfg, idx, escalate(spec))
		if err != nil {
			return MemberSeries{}, fmt.Errorf("degraded rerun: %w", err)
		}
		m.DegradedStepTimes = d.StepTimes
	}
	return m, nil
}

// escalate returns the worker spec one interference level up: a colocated
// aggressor steps from L to M or M to H (H stays H — already saturated),
// and a previously clean worker gains a medium aggressor.
func escalate(spec WorkerSpec) WorkerSpec {
	if !spec.Aggressor {
		spec.Aggressor = true
		spec.Level = workload.LevelMedium
		return spec
	}
	if spec.Level < workload.LevelHigh {
		spec.Level++
	}
	return spec
}

// stepDurations converts step-completion timestamps into per-step
// durations, dropping any non-positive interval (the first timestamp's
// offset from measurement start is unknown, so the series has one fewer
// entry than StepTimes).
func stepDurations(stepTimes []float64) ([]float64, error) {
	var durs []float64
	if len(stepTimes) > 1 {
		durs = make([]float64, 0, len(stepTimes)-1)
	}
	for k := 1; k < len(stepTimes); k++ {
		if d := stepTimes[k] - stepTimes[k-1]; d > 0 {
			durs = append(durs, d)
		}
	}
	if len(durs) == 0 {
		return nil, fmt.Errorf("cluster: too few steps measured to derive step durations (%d timestamps)", len(stepTimes))
	}
	return durs, nil
}

// simulateWorker runs one worker node end to end and records its measured
// step-completion timestamps.
func simulateWorker(cfg Config, idx int, spec WorkerSpec) (MemberSeries, error) {
	ncfg := cfg.Node
	ncfg.Seed = cfg.Node.Seed + int64(idx)*7919
	n, err := node.New(ncfg)
	if err != nil {
		return MemberSeries{}, err
	}
	opts := policy.DefaultOptions()
	opts.MLCores = cfg.MLCores
	applied, err := policy.Apply(n, spec.Policy, opts)
	if err != nil {
		return MemberSeries{}, err
	}
	task, err := cfg.MakeTask()
	if err != nil {
		return MemberSeries{}, err
	}
	task.RecordStepTimes(true)
	if err := n.AddTask(task, applied.ML); err != nil {
		return MemberSeries{}, err
	}
	if spec.Aggressor {
		agg, err := workload.NewDRAMAggressor(spec.Level)
		if err != nil {
			return MemberSeries{}, err
		}
		if err := n.AddTask(agg, applied.Low); err != nil {
			return MemberSeries{}, err
		}
	}
	n.Run(cfg.Warmup)
	task.RecordStepTimes(true) // reset recorded warmup steps
	n.StartMeasurement()
	n.Run(cfg.Measure)
	return MemberSeries{
		StepsPerSec: task.Throughput(n.Now()),
		StepTimes:   append([]float64(nil), task.StepTimes()...),
	}, nil
}
