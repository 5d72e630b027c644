package experiments

import (
	"kelp/internal/accel"
	"kelp/internal/cluster"
	"kelp/internal/clusterfaults"
	"kelp/internal/policy"
	"kelp/internal/pool"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// The cluster fault-tolerance study: the paper's service-level motivation
// (§II-D, Fig. 1 — synchronous training gated by the slowest worker) run
// under realistic fleet conditions, where workers crash, hang and degrade
// mid-run. Each cell simulates a small lock-step cluster under one
// isolation policy, then replays its schedule under one injected fault
// regime with the recovery layer (checkpoint/restore, barrier timeout,
// bounded restart) engaged. The metric is goodput — useful steps per
// wall-clock second net of rework and downtime — and the study shows that
// isolation shrinks not just tail amplification but the cost of every
// failure: faster steps mean fewer steps of work lost per rollback and a
// shorter road back to the pre-crash step.

// ClusterFaultCase is one named fault regime of the cluster study.
type ClusterFaultCase struct {
	Name string
	Spec clusterfaults.Spec
}

// ClusterFaultCases returns the study's fault regimes, all rooted at the
// same seed: a clean control row, then crash/restart churn (with and
// without flaky restarts), barrier hangs, mid-run interference
// escalation, and a combined-churn regime.
func ClusterFaultCases(seed uint64) []ClusterFaultCase {
	return []ClusterFaultCase{
		{Name: "none", Spec: clusterfaults.Spec{}},
		{Name: "crash", Spec: clusterfaults.Spec{Seed: seed, Crash: 0.06, Downtime: 1.5}},
		{Name: "flaky-restart", Spec: clusterfaults.Spec{Seed: seed, Crash: 0.06, Downtime: 1, RestartFail: 0.5}},
		{Name: "hang", Spec: clusterfaults.Spec{Seed: seed, Hang: 0.25, HangDur: 0.6}},
		{Name: "degrade", Spec: clusterfaults.Spec{Seed: seed, Degrade: 0.08}},
		{Name: "churn", Spec: clusterfaults.Spec{Seed: seed, Crash: 0.04, Downtime: 1, Hang: 0.15, HangDur: 0.6, Degrade: 0.04}},
	}
}

// ClusterFaultRow is one cell of the study: one fault regime under one
// isolation policy applied to every worker.
type ClusterFaultRow struct {
	Fault  string
	Policy policy.Kind
	// StepsPerSec and Amplification are the fault-free lock-step
	// composition (the ideal service rate and its tail-at-scale factor).
	StepsPerSec   float64
	Amplification float64
	// Goodput is useful steps per second net of rework and downtime; for
	// the clean control row it equals the fault-free service rate.
	Goodput float64
	// WastedStepFraction is discarded work (rollbacks, aborted steps,
	// dropped stragglers) over all executed steps.
	WastedStepFraction float64
	// MeanRecoveryTime is the average crash-to-recovered wall-clock.
	MeanRecoveryTime float64
	// Availability is 1 - downtime/horizon.
	Availability float64
	// Crashes / Restarts / Dead / Checkpoints summarize the run's fault
	// and recovery activity.
	Crashes, Restarts, Dead, Checkpoints int
}

// ClusterFaultWorkers is the study's cluster size.
const ClusterFaultWorkers = 4

// ClusterFaultHorizon is the simulated wall-clock each replay covers.
const ClusterFaultHorizon = 120 * sim.Second

// clusterFaultPolicies are the isolation policies the study compares.
func clusterFaultPolicies() []policy.Kind {
	return []policy.Kind{policy.Baseline, policy.CoreThrottle, policy.Kelp}
}

// ClusterFaults runs the cluster fault-tolerance study: every fault
// regime under every isolation policy, each worker colocated with a
// medium DRAM antagonist (so escalation to heavy interference has room to
// bite, and isolation has something to isolate). A non-nil custom spec
// replaces the standard regimes (the kelpbench -cfaults flag). Each cell
// owns its own cluster simulation, so the study runs on the harness's
// worker pool.
func ClusterFaults(h *Harness, seed uint64, custom *clusterfaults.Spec) ([]ClusterFaultRow, error) {
	cases := ClusterFaultCases(seed)
	if custom != nil {
		cases = []ClusterFaultCase{{Name: "custom", Spec: *custom}}
	}
	kinds := clusterFaultPolicies()
	type cell struct {
		fc ClusterFaultCase
		k  policy.Kind
	}
	var cells []cell
	for _, fc := range cases {
		for _, k := range kinds {
			cells = append(cells, cell{fc, k})
		}
	}
	return pool.Collect(h.workers(), len(cells), func(i int) (ClusterFaultRow, error) {
		c := cells[i]
		workers := make([]cluster.WorkerSpec, ClusterFaultWorkers)
		for w := range workers {
			workers[w] = cluster.WorkerSpec{
				Aggressor: true,
				Level:     workload.LevelMedium,
				Policy:    c.k,
			}
		}
		r, err := cluster.Run(cluster.Config{
			Workers: workers,
			Node:    h.Node,
			MLCores: 4,
			Warmup:  h.Warmup,
			Measure: h.Measure,
			MakeTask: func() (*workload.Training, error) {
				return workload.NewCNN3(accel.NewGPU())
			},
			// The outer pool.Collect already fans cells out; keep each cell's
			// worker simulations serial so parallelism is bounded once.
			Parallel: 1,
			Faults:   c.fc.Spec,
			Horizon:  ClusterFaultHorizon,
		})
		if err != nil {
			return ClusterFaultRow{}, err
		}
		row := ClusterFaultRow{
			Fault:         c.fc.Name,
			Policy:        c.k,
			StepsPerSec:   r.StepsPerSec,
			Amplification: r.Amplification,
			// The clean control row never engages the replay: its goodput
			// is the fault-free service rate itself.
			Goodput:      r.StepsPerSec,
			Availability: 1,
		}
		if rep := r.Faults; rep != nil {
			row.Goodput = rep.Goodput
			row.WastedStepFraction = rep.WastedStepFraction
			row.MeanRecoveryTime = rep.MeanRecoveryTime
			row.Availability = rep.Availability
			row.Crashes = rep.Crashes
			row.Restarts = rep.Restarts
			row.Dead = rep.DeadWorkers
			row.Checkpoints = rep.Checkpoints
		}
		return row, nil
	})
}

// ClusterFaultsTable renders the cluster fault-tolerance study.
func ClusterFaultsTable(rows []ClusterFaultRow) *Table {
	t := NewTable("Cluster fault tolerance: goodput under worker failures (4x CNN3 + DRAM antagonist)",
		"Fault", "Policy", "Steps/s", "Amplif", "Goodput", "Wasted",
		"Recovery s", "Avail", "Crashes", "Restarts", "Dead", "Ckpts")
	for _, r := range rows {
		t.AddRow(r.Fault, r.Policy, r.StepsPerSec, r.Amplification, r.Goodput,
			r.WastedStepFraction, r.MeanRecoveryTime, r.Availability,
			r.Crashes, r.Restarts, r.Dead, r.Checkpoints)
	}
	return t
}
