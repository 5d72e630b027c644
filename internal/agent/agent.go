// Package agent is the node-level scheduler integration the paper deploys
// Kelp inside (§IV-D: "Kelp is designed to run with the node-level
// scheduler runtime (e.g. Borglet) in order to gather necessary task
// information such as job priority and profile"). The agent admits tasks
// with priorities, loads the accelerated task's QoS profile, configures the
// chosen isolation policy, and places low-priority tasks — preferring the
// low-priority subdomain, backfilling the rest, exactly the paper's
// placement rule.
//
// Every agent attaches a flight recorder (internal/events) to its node, so
// admission decisions, controller actuations and memory-fabric distress
// transitions are captured from the first tick; kelpd serves the stream at
// GET /events.
package agent

import (
	"fmt"

	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/profile"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// Config parameterizes an agent.
type Config struct {
	// Node is the machine to manage.
	Node node.Config
	// Policy is the isolation configuration to run.
	Policy policy.Kind
	// Options are the policy options; MLCores is taken from the first
	// admitted accelerated task if left zero here.
	Options policy.Options
	// Profiles supplies per-application watermarks; nil uses defaults.
	Profiles *profile.Registry
	// EventCapacity sizes the flight recorder's ring buffer; 0 selects
	// events.DefaultCapacity.
	EventCapacity int
	// Faults configures deterministic fault injection on the controller
	// signal path (the kelpd -faults flag). The zero Spec disables
	// injection; the injector attaches only after the policy is applied,
	// so boot-time configuration is never fault-gated.
	Faults faults.Spec
}

// Agent manages one node.
type Agent struct {
	cfg      Config
	n        *node.Node
	applied  *policy.Applied
	mlName   string
	batchSeq int
}

// New builds the node. The policy is applied lazily on the first ML
// admission so the accelerated task's profile and core reservation can
// parameterize it.
func New(cfg Config) (*Agent, error) {
	n, err := node.New(cfg.Node)
	if err != nil {
		return nil, err
	}
	if cfg.Profiles == nil {
		cfg.Profiles = profile.NewRegistry()
	}
	capacity := cfg.EventCapacity
	if capacity == 0 {
		capacity = events.DefaultCapacity
	}
	rec, err := events.New(capacity)
	if err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	n.SetEvents(rec)
	return &Agent{cfg: cfg, n: n}, nil
}

// Node exposes the managed node.
func (a *Agent) Node() *node.Node { return a.n }

// Events returns the node's flight recorder.
func (a *Agent) Events() *events.Recorder { return a.n.Events() }

// recording reports whether the node has a live flight recorder; call
// sites use it to skip field-map construction entirely when recording is
// off, so instrumentation costs nothing on an unrecorded node.
func (a *Agent) recording() bool { return a.n.Events().Enabled() }

// emit records one agent-sourced event at the current simulated time.
// Callers constructing a field map should guard with recording().
func (a *Agent) emit(t events.Type, fields map[string]any) {
	a.n.Events().Emit(float64(a.n.Now()), t, "agent", fields)
}

// reject emits an agent.reject event and returns err unchanged.
func (a *Agent) reject(task string, ml bool, err error) error {
	if a.recording() {
		a.emit(events.AgentReject, map[string]any{
			"task": task, "ml": ml, "reason": err.Error(),
		})
	}
	return err
}

// Applied returns the policy application, or nil before ML admission.
func (a *Agent) Applied() *policy.Applied { return a.applied }

// Degraded reports whether the node's controller is currently running in
// fail-safe mode (surfaced by kelpd's GET /healthz).
func (a *Agent) Degraded() bool { return a.applied.Degraded() }

// AdmitML schedules the accelerated high-priority task, loading its
// profile and applying the policy. Only one accelerated task per machine,
// per the paper's usage model (§II-A).
func (a *Agent) AdmitML(t workload.Task, cores int) error {
	if t == nil {
		return a.reject("", true, fmt.Errorf("agent: nil task"))
	}
	if a.mlName != "" {
		return a.reject(t.Name(), true,
			fmt.Errorf("agent: accelerated task %q already admitted (exclusive per node, §II-A)", a.mlName))
	}
	if cores < 1 {
		return a.reject(t.Name(), true, fmt.Errorf("agent: cores = %d", cores))
	}

	prof := a.cfg.Profiles.Get(t.Name())
	opts := a.cfg.Options
	// The core reservation comes with the scheduling request.
	opts.MLCores = cores
	if opts.SamplePeriod == 0 {
		opts.SamplePeriod = prof.SamplePeriodSec
	}
	if opts.MinLowCores == 0 {
		opts.MinLowCores = prof.MinLowCores
	}
	if opts.MaxBackfillCores == 0 {
		opts.MaxBackfillCores = prof.MaxBackfillCores
	}
	if opts.Watermarks == nil {
		wm := prof.Materialize(a.cfg.Node.Memory)
		opts.Watermarks = &wm
	}

	applied, err := policy.Apply(a.n, a.cfg.Policy, opts)
	if err != nil {
		return a.reject(t.Name(), true, err)
	}
	if a.cfg.Faults.Enabled() && a.n.Faults() == nil {
		inj, err := faults.NewInjector(a.cfg.Faults)
		if err != nil {
			return a.reject(t.Name(), true, err)
		}
		a.n.SetFaults(inj)
	}
	if err := a.n.AddTask(t, applied.ML); err != nil {
		return a.reject(t.Name(), true, err)
	}
	a.applied = applied
	a.mlName = t.Name()
	if a.recording() {
		a.emit(events.AgentAdmit, map[string]any{
			"task": t.Name(), "group": applied.ML, "ml": true, "cores": cores,
		})
	}
	return nil
}

// AdmitBatch schedules a low-priority task. Per the paper, "CPU tasks are
// prioritized to be assigned to the low priority subdomain"; under the full
// Kelp policy every fourth admission backfills the high-priority subdomain
// instead, where the runtime grows its cores only when the system is calm.
func (a *Agent) AdmitBatch(t workload.Task) error {
	if t == nil {
		return a.reject("", false, fmt.Errorf("agent: nil task"))
	}
	if a.applied == nil {
		return a.reject(t.Name(), false, fmt.Errorf("agent: admit the accelerated task first"))
	}
	group := a.applied.Low
	a.batchSeq++
	if a.applied.Backfill != "" && a.batchSeq%4 == 0 {
		group = a.applied.Backfill
	}
	if err := a.n.AddTask(t, group); err != nil {
		return a.reject(t.Name(), false, err)
	}
	if a.recording() {
		a.emit(events.AgentAdmit, map[string]any{
			"task": t.Name(), "group": group, "ml": false,
		})
	}
	return nil
}

// Run advances the managed node.
func (a *Agent) Run(d sim.Duration) { a.n.Run(d) }

// StartMeasurement begins the measured interval on every task.
func (a *Agent) StartMeasurement() { a.n.StartMeasurement() }
