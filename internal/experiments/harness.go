// Package experiments reproduces every table and figure of the paper's
// evaluation: the workload inventory (Table I), the fleet bandwidth census
// (Fig. 2), the execution timeline (Fig. 3), the interference sensitivity
// studies (Figs. 5, 15, 16), the backpressure/prefetcher sweep (Fig. 7),
// the two case studies with their actuator traces (Figs. 9-12), and the
// overall comparison and efficiency results (Figs. 13, 14).
//
// Every experiment is expressed through one Harness that builds a fresh
// node per cell, applies a policy, attaches the workload mix, warms up,
// measures, and normalizes against a cached standalone run — mirroring the
// paper's methodology (§V-A).
package experiments

import (
	"fmt"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// MLKind selects one of the paper's four production ML workloads.
type MLKind int

// The accelerated workloads (Table I).
const (
	RNN1 MLKind = iota
	CNN1
	CNN2
	CNN3
)

// String returns the workload name.
func (m MLKind) String() string {
	switch m {
	case RNN1:
		return "RNN1"
	case CNN1:
		return "CNN1"
	case CNN2:
		return "CNN2"
	case CNN3:
		return "CNN3"
	default:
		return fmt.Sprintf("MLKind(%d)", int(m))
	}
}

// MLKinds lists the four workloads in Table I order.
func MLKinds() []MLKind { return []MLKind{RNN1, CNN1, CNN2, CNN3} }

// MLCores returns the host cores each workload reserves, sized to its
// Table I CPU intensity (CNN2's in-feed is the most CPU-hungry).
func (m MLKind) MLCores() int {
	switch m {
	case RNN1:
		return 2
	case CNN1:
		return 2
	case CNN2:
		return 8
	default:
		return 4
	}
}

// Platform returns the workload's accelerator platform.
func (m MLKind) Platform() accel.Platform {
	switch m {
	case RNN1:
		return accel.NewTPU()
	case CNN1, CNN2:
		return accel.NewCloudTPU()
	default:
		return accel.NewGPU()
	}
}

// CPUKind selects a colocated CPU workload type.
type CPUKind int

// The low-priority CPU workloads and synthetic antagonists.
const (
	Stream CPUKind = iota
	Stitch
	CPUML
	DRAMAggressor
	LLCAggressor
	RemoteDRAM
)

// String returns the workload name.
func (c CPUKind) String() string {
	switch c {
	case Stream:
		return "Stream"
	case Stitch:
		return "Stitch"
	case CPUML:
		return "CPUML"
	case DRAMAggressor:
		return "DRAM"
	case LLCAggressor:
		return "LLC"
	case RemoteDRAM:
		return "RemoteDRAM"
	default:
		return fmt.Sprintf("CPUKind(%d)", int(c))
	}
}

// BatchKinds lists the evaluation's low-priority batch workloads (Fig. 13).
func BatchKinds() []CPUKind { return []CPUKind{Stream, Stitch, CPUML} }

// CPUSpec is one low-priority task instance in a mix.
type CPUSpec struct {
	Kind CPUKind
	// Threads for Stream / CPUML (ignored elsewhere).
	Threads int
	// Level for the synthetic aggressors.
	Level workload.Level
	// RemoteFrac for RemoteDRAM.
	RemoteFrac float64
	// Backfill marks the instance as the one Kelp backfills into the
	// high-priority subdomain (ignored by the other policies, which place
	// it with the rest).
	Backfill bool
	// RemoteSocket pins the instance's threads to the non-ML socket
	// (the remote-thread sweep of Fig. 16).
	RemoteSocket bool
}

// Scenario is one experiment cell.
type Scenario struct {
	ML MLKind
	// NoML drops the accelerated task entirely — the cell measures only
	// its CPU mix (the fleet study's batch-only machines). ML is ignored
	// when set, and the result's MLThroughput is 0.
	NoML   bool
	CPU    []CPUSpec
	Policy policy.Kind
	Opts   policy.Options
	Node   node.Config
	// Warmup is discarded; Measure is the scored interval.
	Warmup, Measure sim.Duration
	// Events, when non-nil, attaches a flight recorder to the run's node.
	// The recorder is a passive observer: attaching one never changes the
	// measured results. Share one recorder across sequential runs only —
	// concurrent runs would interleave their streams.
	Events *events.Recorder
	// Faults configures deterministic fault injection on the run's
	// controller signal path. The zero Spec disables injection entirely
	// (no injector is built, so the run is byte-identical to one before
	// the faults package existed). Each run builds its own injector from
	// the spec, so parallel sweeps stay deterministic per cell.
	Faults faults.Spec
}

// Result carries one run's raw measurements. It holds values only, no
// simulation object, so a cached Result (cache.go) keeps no node,
// controller or injector alive; TestResultHoldsValuesOnly pins that.
type Result struct {
	// MLThroughput is the ML task's rate in its native units.
	MLThroughput float64
	// MLTail is RNN1's 95%-ile latency (0 for training workloads).
	MLTail float64
	// CPUUnits is the summed low-priority throughput.
	CPUUnits float64
	// PerTask maps each low-priority task to its throughput.
	PerTask map[string]float64
	// Controls is the policy's controller state at the end of the run.
	Controls Controls
	// Faults is the run's fault injection (zero when the scenario's spec
	// is disabled and no injector was built).
	Faults FaultCounts
}

// Controls is a policy's controller state at the end of a run: the final
// actuator readings (Figs. 11, 12) and decision counts.
type Controls struct {
	// Runtime reports whether the policy ran the Kelp runtime (KP-SD, KP);
	// the next four fields are its readings.
	Runtime          bool
	LowCores         int
	Prefetchers      int
	BackfillCores    int
	RuntimeDecisions int
	// Throttler reports whether the policy ran CoreThrottle (CT); the
	// next two fields are its readings.
	Throttler          bool
	ThrottleCores      int
	ThrottlerDecisions int
	// Degraded reports whether the controller ended the run in fail-safe
	// mode.
	Degraded bool
}

// FaultCounts is a run's fault injection: the injector's spec, its total
// and its per-class counts.
type FaultCounts struct {
	Spec   faults.Spec
	Total  uint64
	Counts map[string]uint64
}

// controlsOf reads a policy's controller state.
func controlsOf(a *policy.Applied) Controls {
	c := Controls{Degraded: a.Degraded()}
	if rt := a.Runtime; rt != nil {
		c.Runtime = true
		c.LowCores, c.Prefetchers, c.BackfillCores = rt.LowCores(), rt.LowPrefetchers(), rt.BackfillCores()
		c.RuntimeDecisions = len(rt.History())
	}
	if th := a.Throttler; th != nil {
		c.Throttler = true
		c.ThrottleCores, c.ThrottlerDecisions = th.Cores(), len(th.History())
	}
	return c
}

// NewCPUTask constructs a low-priority task for a spec. The name must be
// unique per node, so the instance index is appended.
func NewCPUTask(spec CPUSpec, idx int, llcSize float64) (*workload.Loop, error) {
	var (
		l   *workload.Loop
		err error
	)
	switch spec.Kind {
	case Stream:
		l, err = workload.NewStream(spec.Threads)
	case Stitch:
		l, err = workload.NewStitch(idx)
	case CPUML:
		l, err = workload.NewCPUML(spec.Threads)
	case DRAMAggressor:
		l, err = workload.NewDRAMAggressor(spec.Level)
	case LLCAggressor:
		l, err = workload.NewLLCAggressor(llcSize)
	case RemoteDRAM:
		l, err = workload.NewRemoteDRAMAggressor(spec.Level, spec.RemoteFrac)
	default:
		return nil, fmt.Errorf("experiments: unknown CPU kind %d", int(spec.Kind))
	}
	if err != nil {
		return nil, err
	}
	cfg := l.Config()
	if spec.Threads > 0 {
		cfg.Threads = spec.Threads
	}
	return workload.NewLoop(fmt.Sprintf("%s#%d", l.Name(), idx), cfg)
}

// NewTask constructs the workload's accelerated task for node n without
// registering it. RNN1 draws its request arrivals from the node's "rnn1"
// RNG stream.
func (m MLKind) NewTask(n *node.Node) (workload.Task, error) {
	switch m {
	case RNN1:
		dev, err := accel.NewDevice(m.Platform())
		if err != nil {
			return nil, err
		}
		return workload.NewRNN1(dev, n.Engine().RNG().Stream("rnn1"))
	case CNN1:
		return workload.NewCNN1(m.Platform())
	case CNN2:
		return workload.NewCNN2(m.Platform())
	case CNN3:
		return workload.NewCNN3(m.Platform())
	}
	return nil, fmt.Errorf("experiments: unknown ML kind %d", int(m))
}

// NewMLTask constructs the accelerated task for a workload kind and
// registers it with the node in the given group.
func NewMLTask(n *node.Node, m MLKind, group string) (workload.Task, error) {
	t, err := m.NewTask(n)
	if err != nil {
		return nil, err
	}
	return t, n.AddTask(t, group)
}

// coherenceFor applies the platform's host coherence penalty to the node's
// interconnect model (the Cloud TPU hosts' remote sensitivity, §VI-A).
func coherenceFor(cfg node.Config, m MLKind) node.Config {
	cfg.Memory.CoherenceFactor = m.Platform().HostCoherencePenalty
	return cfg
}

// cell is one fully constructed scenario instance, ready to warm up and
// measure.
type cell struct {
	n        *node.Node
	ml       workload.Task
	lowTasks []workload.Task
	applied  *policy.Applied
	inj      *faults.Injector
}

// buildCell constructs a scenario's node, policy, and tasks. Construction
// is deterministic in (cfg, s): two cells built from equal inputs are
// indistinguishable, which is what lets the result cache serve one cell's
// Result for another.
func buildCell(cfg node.Config, s Scenario) (*cell, error) {
	n, err := node.New(cfg)
	if err != nil {
		return nil, err
	}
	if s.Events != nil {
		n.SetEvents(s.Events)
	}
	applied, err := policy.Apply(n, s.Policy, s.Opts)
	if err != nil {
		return nil, err
	}
	// The injector attaches after policy.Apply so boot-time configuration
	// writes are never fault-gated: faults target the control loop, not
	// construction.
	var inj *faults.Injector
	if s.Faults.Enabled() {
		inj, err = faults.NewInjector(s.Faults)
		if err != nil {
			return nil, err
		}
		n.SetFaults(inj)
	}
	var ml workload.Task
	if !s.NoML {
		ml, err = NewMLTask(n, s.ML, applied.ML)
		if err != nil {
			return nil, err
		}
	}

	var lowTasks []workload.Task
	for i, spec := range s.CPU {
		t, err := NewCPUTask(spec, i, cfg.Memory.LLCSize)
		if err != nil {
			return nil, err
		}
		group := applied.Low
		switch {
		case spec.Backfill && applied.Backfill != "":
			group = applied.Backfill
		case spec.RemoteSocket:
			// Pin threads to the other socket; data policy stays on the
			// spec's configured home via RemoteFrac semantics.
			rg := fmt.Sprintf("remote-%d", i)
			if _, err := n.Cgroups().Create(rg, 0); err != nil {
				return nil, err
			}
			other := (s.Opts.Socket + 1) % cfg.Topology.Sockets
			if err := n.Cgroups().SetCPUs(rg, n.Processor().SocketCores(other).Take(t.Config().Threads)); err != nil {
				return nil, err
			}
			// Data home remains the ML socket; the node flips the task's
			// RemoteFrac for threads running away from their data.
			if err := n.Cgroups().SetMemPolicy(rg, cgroup.MemPolicy{Socket: s.Opts.Socket}); err != nil {
				return nil, err
			}
			group = rg
		}
		if err := n.AddTask(t, group); err != nil {
			return nil, err
		}
		lowTasks = append(lowTasks, t)
	}
	return &cell{n: n, ml: ml, lowTasks: lowTasks, applied: applied, inj: inj}, nil
}

// Run executes one scenario and returns raw measurements. A scenario
// without a flight recorder is served from the result cache (cache.go), so
// a process simulates each distinct cell once.
func Run(s Scenario) (*Result, error) {
	if s.Warmup <= 0 || s.Measure <= 0 {
		return nil, fmt.Errorf("experiments: warmup/measure must be positive")
	}
	cfg := coherenceFor(s.Node, s.ML)
	f := resultSlot(cfg, s)
	if f == nil {
		return simulate(cfg, s)
	}
	r, err := f.do(func() (*Result, error) { return simulate(cfg, s) })
	if err != nil {
		return nil, err
	}
	return r.clone(), nil
}

// simulate builds, warms up and measures one cell.
func simulate(cfg node.Config, s Scenario) (*Result, error) {
	c, err := buildCell(cfg, s)
	if err != nil {
		return nil, err
	}
	c.n.Run(s.Warmup)
	c.n.StartMeasurement()
	c.n.Run(s.Measure)

	now := c.n.Now()
	res := &Result{
		PerTask:  make(map[string]float64, len(c.lowTasks)),
		Controls: controlsOf(c.applied),
		Faults:   FaultCounts{Spec: c.inj.Spec(), Total: c.inj.Total(), Counts: c.inj.Counts()},
	}
	if c.ml != nil {
		res.MLThroughput = c.ml.Throughput(now)
	}
	if inf, ok := c.ml.(*workload.Inference); ok {
		res.MLTail = inf.TailLatency(0.95)
	}
	for _, t := range c.lowTasks {
		tp := t.Throughput(now)
		res.PerTask[t.Name()] = tp
		res.CPUUnits += tp
	}
	return res, nil
}
