// Package node assembles one server: the processor, the memory system, the
// accelerator, the cgroup control surface, the performance monitor, and the
// running tasks. It implements the per-step pipeline — collect offers,
// resolve the memory system, distribute execution-rate factors, advance
// tasks — and owns the simulation engine that drives it.
package node

import (
	"fmt"
	"math"

	"kelp/internal/cgroup"
	"kelp/internal/cpu"
	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/memsys"
	"kelp/internal/perfmon"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// Config describes one node.
type Config struct {
	Topology cpu.Topology
	Memory   memsys.Config
	// PrefetchTraffic is the fractional extra (speculative, partly wasted)
	// DRAM demand issued by a core with L2 prefetchers enabled — the
	// pressure Kelp manages by toggling them.
	PrefetchTraffic float64
	// NoPrefetchDemand is the fraction of its nominal streaming bandwidth a
	// core can sustain with prefetchers disabled: demand misses cannot hide
	// memory latency, so offered traffic collapses. This is why toggling
	// prefetchers relieves controller saturation (paper §IV-B).
	NoPrefetchDemand float64
	// HardwarePrefetchGovernor enables the paper's §VI-B proposal: a
	// hardware feedback-directed prefetcher that scales each core's
	// prefetch aggressiveness with the measured memory saturation of its
	// home controller, continuously and with zero software latency —
	// making Kelp's software toggling unnecessary. Off by default, as on
	// the paper's hardware.
	HardwarePrefetchGovernor bool
	// NoIncremental turns off StepN's horizon: every call makes the offer
	// pass, rebuilds flows, resolves them (the memory system may still
	// answer a flow set it remembers) and advances one tick. The horizon
	// produces byte-identical results (pinned by the equivalence tests), so
	// this is the reference path for verification and benchmarking, not a
	// correctness switch.
	NoIncremental bool
	// Step is the simulation time step.
	Step sim.Duration
	// Seed roots all randomness.
	Seed int64
}

// DefaultConfig returns the paper-calibrated node: dual-socket, SNC-capable
// memory system, 60% prefetch traffic inflation, 100 µs steps.
func DefaultConfig() Config {
	return Config{
		Topology:         cpu.DefaultTopology(),
		Memory:           memsys.DefaultConfig(),
		PrefetchTraffic:  0.30,
		NoPrefetchDemand: 0.45,
		Step:             sim.DefaultStep,
		Seed:             1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if c.Topology.Sockets != c.Memory.Sockets {
		return fmt.Errorf("node: topology has %d sockets, memory %d",
			c.Topology.Sockets, c.Memory.Sockets)
	}
	if c.Topology.SubdomainsPerSocket != c.Memory.ControllersPerSocket {
		return fmt.Errorf("node: %d subdomains per socket vs %d memory controllers",
			c.Topology.SubdomainsPerSocket, c.Memory.ControllersPerSocket)
	}
	if c.PrefetchTraffic < 0 || c.PrefetchTraffic > 2 {
		return fmt.Errorf("node: PrefetchTraffic = %v", c.PrefetchTraffic)
	}
	if c.NoPrefetchDemand <= 0 || c.NoPrefetchDemand > 1 {
		return fmt.Errorf("node: NoPrefetchDemand = %v", c.NoPrefetchDemand)
	}
	if c.Step <= 0 {
		return fmt.Errorf("node: Step = %v", c.Step)
	}
	return nil
}

// boundTask is a task joined to its cgroup.
type boundTask struct {
	task  workload.Task
	group *cgroup.Group
	// loop is the task as a Loop, which never reports reoffer and so
	// advances after the run's length is known; nil for every other task.
	loop *workload.Loop
	// groupIdx indexes the node's groupsList for allocation-free per-group
	// demand accumulation in the step pipeline.
	groupIdx int
	rates    workload.Rates
	// hasFlow marks whether the task contributed a flow this step.
	hasFlow bool
	flowIdx int
	// effectivePrefetch is the prefetch fraction after the hardware
	// governor's modulation (equal to the group's raw fraction otherwise).
	effectivePrefetch float64
}

// Node is one simulated server.
type Node struct {
	cfg     Config
	proc    *cpu.Processor
	mem     *memsys.System
	cgroups *cgroup.Manager
	mon     *perfmon.Monitor
	engine  *sim.Engine

	tasks  []*boundTask
	byName map[string]*boundTask
	// ticked indexes the tasks that can report reoffer, and so may end a run:
	// every task but the loops, which advance once the run's length is
	// known.
	ticked []int

	// groupsList holds the distinct cgroups of registered tasks, indexed by
	// boundTask.groupIdx. Entries are never removed (indices must stay
	// stable); a stale entry for a group with no remaining tasks just
	// accumulates zero demand.
	groupsList []*cgroup.Group

	// events is the optional flight recorder shared by every layer that
	// makes decisions on this node (memsys transitions, controller
	// actuations, agent admissions). Nil when no recorder is attached.
	events *events.Recorder

	// faults is the optional fault injector perturbing the sensor and
	// actuator path of every controller on this node. Nil (the default)
	// means a fault-free signal path.
	faults *faults.Injector

	// distressEWMA backs the hardware prefetch governor's smoothing.
	distressEWMA map[int]float64

	// Step scratch, reused every tick so the steady-state node pipeline
	// does not allocate (see docs/PERFORMANCE.md). Sized to the task set;
	// regrown only when tasks are added.
	scratchOffers    []workload.Offer
	scratchEffective []float64
	scratchCapacity  []float64
	scratchFlows     []memsys.Flow
	scratchDemand    []float64

	// Skip state for StepN's offer pass (docs/PERFORMANCE.md §3). horizon
	// is the earliest offer horizon the tasks returned at the last offer
	// pass: before it, every task's offer, and so the flow set and rates
	// assembled from them, is still exact, as long as the cgroup,
	// prefetcher and memory-config generations are those of that assembly.
	// A run that ends on a reoffer, a task add or remove, a snapshot
	// restore and New set it to -Inf. Config.NoIncremental and the hardware
	// prefetch governor (whose integral state mutates every tick) disable
	// it. None of it is snapshotted.
	horizon       float64
	prevCgroupGen uint64
	prevProcGen   uint64
	prevMemEpoch  uint64
	// confirmed is the slot StepN asks a task that reported reoffer for its
	// offer in. It lives on the node because a local would escape through
	// the interface call and allocate on every confirm.
	confirmed workload.Offer
}

// New builds a node.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	proc, err := cpu.NewProcessor(cfg.Topology)
	if err != nil {
		return nil, err
	}
	mem, err := memsys.NewSystem(cfg.Memory)
	if err != nil {
		return nil, err
	}
	mon, err := perfmon.NewMonitor(cfg.Memory.Sockets, cfg.Memory.ControllersPerSocket)
	if err != nil {
		return nil, err
	}
	engine, err := sim.NewEngine(cfg.Step, cfg.Seed)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		proc:    proc,
		mem:     mem,
		cgroups: cgroup.NewManager(proc),
		mon:     mon,
		engine:  engine,
		byName:  make(map[string]*boundTask),
		horizon: math.Inf(-1),
	}
	engine.SetStepper(n)
	return n, nil
}

// MustNew is New that panics on invalid configuration.
func MustNew(cfg Config) *Node {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Config returns the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Processor returns the node's processor.
func (n *Node) Processor() *cpu.Processor { return n.proc }

// Memory returns the node's memory system.
func (n *Node) Memory() *memsys.System { return n.mem }

// Cgroups returns the node's task-group manager.
func (n *Node) Cgroups() *cgroup.Manager { return n.cgroups }

// Monitor returns the node's performance monitor.
func (n *Node) Monitor() *perfmon.Monitor { return n.mon }

// Engine returns the node's simulation engine.
func (n *Node) Engine() *sim.Engine { return n.engine }

// SetEvents attaches a flight recorder to the node and every decision
// layer beneath it. The recorder is stamped with the engine's simulated
// clock; attaching one never changes simulation behaviour. Pass nil to
// detach.
func (n *Node) SetEvents(rec *events.Recorder) {
	n.events = rec
	n.faults.SetRecorder(rec)
	if rec == nil {
		n.mem.SetEvents(nil, nil)
		return
	}
	n.mem.SetEvents(rec, func() float64 { return float64(n.engine.Now()) })
}

// Events returns the attached flight recorder, or nil. The returned value
// is a valid (no-op) emit target even when nil, so controller layers call
// n.Events().Emit without branching.
func (n *Node) Events() *events.Recorder { return n.events }

// SetFaults attaches a fault injector to the node's signal path; every
// controller routes its sample reads and actuation writes through it. The
// injector reports injected faults via the node's flight recorder. Pass
// nil to restore the fault-free path.
func (n *Node) SetFaults(inj *faults.Injector) {
	n.faults = inj
	inj.SetRecorder(n.events)
}

// Faults returns the attached injector, or nil. A nil injector is a valid
// pass-through target for every faults method, so controllers call
// n.Faults().PerturbSample etc. without branching.
func (n *Node) Faults() *faults.Injector { return n.faults }

// Now returns the current simulated time.
func (n *Node) Now() sim.Time { return n.engine.Now() }

// AddTask registers a task into an existing cgroup.
func (n *Node) AddTask(t workload.Task, groupName string) error {
	if t == nil {
		return fmt.Errorf("node: nil task")
	}
	if _, dup := n.byName[t.Name()]; dup {
		return fmt.Errorf("node: task %q already registered", t.Name())
	}
	g, err := n.cgroups.Group(groupName)
	if err != nil {
		return err
	}
	gi := -1
	for i, cur := range n.groupsList {
		if cur == g {
			gi = i
			break
		}
	}
	if gi < 0 {
		gi = len(n.groupsList)
		n.groupsList = append(n.groupsList, g)
	}
	bt := &boundTask{task: t, group: g, groupIdx: gi, rates: identityRates()}
	bt.loop, _ = t.(*workload.Loop)
	n.tasks = append(n.tasks, bt)
	n.byName[t.Name()] = bt
	n.indexTicked()
	n.horizon = math.Inf(-1)
	return nil
}

// indexTicked rebuilds ticked after the task set changed.
func (n *Node) indexTicked() {
	n.ticked = n.ticked[:0]
	for i, bt := range n.tasks {
		if bt.loop == nil {
			n.ticked = append(n.ticked, i)
		}
	}
}

// RemoveTask unregisters a task (its cgroup remains).
func (n *Node) RemoveTask(name string) error {
	bt, ok := n.byName[name]
	if !ok {
		return fmt.Errorf("node: no task %q", name)
	}
	delete(n.byName, name)
	for i, cur := range n.tasks {
		if cur == bt {
			copy(n.tasks[i:], n.tasks[i+1:])
			// Zero the vacated tail slot: the shift-delete otherwise leaves
			// a stale *boundTask in the backing array, keeping the removed
			// task (and its cgroup) reachable by the GC for as long as the
			// slice lives.
			n.tasks[len(n.tasks)-1] = nil
			n.tasks = n.tasks[:len(n.tasks)-1]
			break
		}
	}
	n.indexTicked()
	n.horizon = math.Inf(-1)
	return nil
}

// Task returns a registered task by name.
func (n *Node) Task(name string) (workload.Task, error) {
	bt, ok := n.byName[name]
	if !ok {
		return nil, fmt.Errorf("node: no task %q", name)
	}
	return bt.task, nil
}

// Tasks returns all tasks in registration order.
func (n *Node) Tasks() []workload.Task {
	out := make([]workload.Task, len(n.tasks))
	for i, bt := range n.tasks {
		out[i] = bt.task
	}
	return out
}

// LastRates returns the most recent execution-rate factors applied to a
// task, for runtime introspection and traces.
func (n *Node) LastRates(name string) (workload.Rates, error) {
	bt, ok := n.byName[name]
	if !ok {
		return workload.Rates{}, fmt.Errorf("node: no task %q", name)
	}
	return bt.rates, nil
}

func identityRates() workload.Rates {
	return workload.Rates{CPUFactor: 1, LatencyStretch: 1, BWFraction: 1, LLCHit: 1, Backpressure: 1, SnoopStretch: 1}
}

// groupSocket returns the socket a group's cores run on (the socket of its
// first core), and whether it has any cores.
func (n *Node) groupSocket(g *cgroup.Group) (int, bool) {
	cpus := g.CPUs()
	if cpus.Len() == 0 {
		return 0, false
	}
	c, err := n.proc.Core(cpus[0])
	if err != nil {
		return 0, false
	}
	return c.Socket, true
}

// lastDistress returns the previous step's distress duty at the group's
// home controller (the subdomain's controller under SNC, the socket
// maximum otherwise), feeding the hardware prefetch governor.
func (n *Node) lastDistress(socket, subdomain int) float64 {
	res := n.mem.Last()
	if res == nil {
		return 0
	}
	if n.mem.Config().SNCEnabled {
		return res.Controller(socket, subdomain).Distress
	}
	return res.MaxDistress(socket)
}

// governorFactor runs the per-home integral controller of the hardware
// prefetch governor: aggressive back-off while distress is asserted, slow
// recovery when the controller is calm. The state converges to the largest
// prefetch aggressiveness that keeps utilization just below the distress
// threshold, without the flapping a purely proportional response causes.
func (n *Node) governorFactor(socket, subdomain int) float64 {
	key := socket*64 + subdomain
	if n.distressEWMA == nil {
		n.distressEWMA = make(map[int]float64)
	}
	g, ok := n.distressEWMA[key]
	if !ok {
		g = 1
	}
	if d := n.lastDistress(socket, subdomain); d > 0 {
		g -= 0.05 * d
		if g < 0 {
			g = 0
		}
	} else {
		g += 0.002
		if g > 1 {
			g = 1
		}
	}
	n.distressEWMA[key] = g
	return g
}

// prefetchFrac returns the fraction of a group's cores with prefetchers on.
func (n *Node) prefetchFrac(g *cgroup.Group) float64 {
	cpus := g.CPUs()
	if cpus.Len() == 0 {
		return 0
	}
	on := 0
	for _, id := range cpus {
		if n.proc.PrefetchOn(id) {
			on++
		}
	}
	return float64(on) / float64(cpus.Len())
}

// StepN implements sim.Stepper: the node pipeline for the tick at now and
// the run of ticks that follows it:
//   - the offer pass collects every task's offer and timeshares each
//     cgroup's cores among its tasks; flow assembly then builds the memory
//     system's flows, resolves them and distributes each task's rates.
//     Within the horizon (withinHorizon) no task's offer can have changed
//     since the last pass, so the offers, effective cores, flows and rates
//     are still the cached ones and only the cached flows are resolved
//     again, which the memory system answers from its memo.
//   - the run advances the tasks on their effective cores and rates. Its
//     limit (runLimit) is the ticks before the first that is past the
//     earliest offer horizon, past the deadline, or due for a controller.
//     A lone task that can report reoffer takes the run in one Advance;
//     several go tick by tick together. When a tick before the limit
//     reports reoffer, the node asks the tasks that can report it for
//     their offers at the next tick (reofferUnchanged): if each is the one
//     the run's rates were resolved from, with a horizon no earlier than
//     the run's, the run goes on from there, and otherwise it ends there.
//     Each workload.Loop, which never reports reoffer, then advances the
//     run's ticks in one Advance, and the monitor integrates the run in one
//     RecordN.
//
// Going on is exact because a run splits anywhere: a fresh StepN at the
// next tick would make the offer pass, find every offer unchanged, resolve
// the same flows and run on the same cores and rates to the same limit,
// and sim.AddN composes exactly. A node with Config.NoIncremental or
// the hardware prefetch governor takes the whole pipeline and one tick on
// every call, so it never asks. It returns the number of ticks advanced.
func (n *Node) StepN(now sim.Time, dt sim.Duration, deadline, due sim.Time) int {
	var res *memsys.Resolution
	if n.withinHorizon(now) {
		res = n.resolve(n.scratchFlows)
	} else {
		n.offer(now)
		res = n.resolveOffers()
	}

	end := n.horizon
	if !n.incremental() {
		end = now
	}
	limit := runLimit(now, dt, end, deadline, due)
	tasks, effective := n.tasks, n.scratchEffective[:len(n.tasks)]
	ticks, stale := limit, false
	switch len(n.ticked) {
	case 0:
	case 1:
		i := n.ticked[0]
		bt := tasks[i]
		ticks = 0
		for at := now; ; {
			k, re := bt.task.Advance(at, dt, limit-ticks, effective[i], &bt.rates)
			if ticks += k; !re || ticks == limit {
				stale = re
				break
			}
			if at = sim.AddN(at, dt, k); !n.reofferUnchanged(i, at) {
				stale = true
				break
			}
		}
	default:
		// Tasks may share a device, so they take each tick in turn.
		ticks = 0
		for at := now; ticks < limit; {
			re := false
			for _, i := range n.ticked {
				bt := tasks[i]
				if _, r := bt.task.Advance(at, dt, 1, effective[i], &bt.rates); r {
					re = true
				}
			}
			ticks++
			at += dt
			if re && (ticks == limit || !n.tickedUnchanged(at)) {
				stale = true
				break
			}
		}
	}
	// A task's Advance reads only its own state, cores and rates, so
	// advancing the loops after the others changes nothing.
	for i, bt := range tasks {
		if bt.loop != nil {
			bt.loop.Advance(now, dt, ticks, effective[i], &bt.rates)
		}
	}
	if stale {
		n.horizon = math.Inf(-1)
	}
	n.mon.RecordN(dt, res, ticks)
	return ticks
}

// reofferUnchanged reports whether task i, which reported reoffer on the
// tick before at, offers at at exactly what the run's rates were resolved
// from, on the cores of the last offer pass, with a horizon no earlier than
// the run's. A reoffer means only that offer-relevant state changed: an
// Inference server whose CPU-phase requests outnumber its cores offers the
// same cores for one request more or less.
func (n *Node) reofferUnchanged(i int, at sim.Time) bool {
	until := n.tasks[i].task.Offer(at, n.scratchCapacity[i], &n.confirmed)
	return until >= n.horizon && n.confirmed == n.scratchOffers[i]
}

// tickedUnchanged is reofferUnchanged for every task that can report
// reoffer.
func (n *Node) tickedUnchanged(at sim.Time) bool {
	for _, i := range n.ticked {
		if !n.reofferUnchanged(i, at) {
			return false
		}
	}
	return true
}

// maxRun caps one run's ticks, far beyond any bound a run meets in
// practice (over three simulated years at 100 µs with a 64-bit int, over
// a simulated day with a 32-bit one), so that the search in runLimit
// stays finite even if the clock could stop advancing. Half the int range
// keeps the search's lo+step from overflowing.
const maxRun = min(1<<40, math.MaxInt>>1)

// runLimit returns how many ticks the run from now may take: the tick at
// now, and each following tick whose start time, reached by repeated adds
// of dt, is before end and deadline and not yet due for a controller. The
// start times are sim.AddN's, where the engine's clock lands. The estimate
// from the bounds is at most a few ticks off (rounding of the repeated
// adds), so the search around it takes a handful of AddN calls; it
// gallops out from the estimate and then bisects, so it stays exact for
// any rounding drift.
func runLimit(now, dt, end, deadline, due float64) int {
	before := func(t float64) bool { return t < end && t < deadline-1e-12 && t+1e-12 < due }
	if !before(now + dt) {
		return 1 // a one-tick run, as every Tick and a non-incremental node take
	}
	open := func(k int) bool { return before(sim.AddN(now, dt, k)) }
	guess := 1
	if est := (min(end, deadline-1e-12, due-1e-12) - now) / dt; est > 1 {
		guess = int(min(est, maxRun))
	}
	// open(lo) (or lo is 0) and !open(hi); the limit is the least k >= 1
	// with !open(k).
	var lo, hi int
	if open(guess) {
		lo = guess
		for step := 1; ; step *= 2 {
			if lo >= maxRun {
				return maxRun
			}
			if hi = min(lo+step, maxRun); !open(hi) {
				break
			}
			lo = hi
		}
	} else {
		hi = guess
		for step := 1; ; step *= 2 {
			if lo = hi - step; lo < 1 {
				lo = 0
				break
			}
			if open(lo) {
				break
			}
			hi = lo
		}
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; open(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// offer runs the offer pass for the tick at now: every task's offer, and
// its effective cores after timesharing. Two tasks in one cgroup contend
// for its cpuset like real cgroup siblings: when the group is
// oversubscribed each task gets a proportional core share. It records the
// earliest offer horizon. All pass-local buffers live on the node and are
// reused every tick.
func (n *Node) offer(now sim.Time) {
	if cap(n.scratchOffers) < len(n.tasks) {
		n.scratchOffers = make([]workload.Offer, len(n.tasks))
		n.scratchEffective = make([]float64, len(n.tasks))
		n.scratchCapacity = make([]float64, len(n.tasks))
	}
	offers := n.scratchOffers[:len(n.tasks)]
	effective := n.scratchEffective[:len(n.tasks)]
	capacity := n.scratchCapacity[:len(n.tasks)]
	if cap(n.scratchDemand) < len(n.groupsList) {
		n.scratchDemand = make([]float64, len(n.groupsList))
	}
	groupDemand := n.scratchDemand[:len(n.groupsList)]
	for i := range groupDemand {
		groupDemand[i] = 0
	}
	horizon := math.Inf(1)
	for i, bt := range n.tasks {
		capacity[i] = float64(bt.group.CPUs().Len())
		if until := bt.task.Offer(now, capacity[i], &offers[i]); until < horizon {
			horizon = until
		}
		groupDemand[bt.groupIdx] += offers[i].ActiveCores
	}
	n.horizon = horizon
	for i, bt := range n.tasks {
		eff := offers[i].ActiveCores
		if total := groupDemand[bt.groupIdx]; total > capacity[i] && total > 0 {
			eff *= capacity[i] / total
		}
		effective[i] = eff
	}
}

// resolveOffers assembles the memory system's flows from the offer pass,
// resolves them and distributes each task's rates, then records the
// generations the horizon is valid under.
func (n *Node) resolveOffers() *memsys.Resolution {
	offers := n.scratchOffers[:len(n.tasks)]
	effective := n.scratchEffective[:len(n.tasks)]
	fl := n.scratchFlows[:0]
	for i, bt := range n.tasks {
		bt.hasFlow = false
		off := &offers[i]
		if effective[i] <= 0 {
			continue
		}
		sock, ok := n.groupSocket(bt.group)
		if !ok {
			continue
		}
		pol := bt.group.MemPolicy()
		rf := off.Mem.RemoteFrac
		if sock != pol.Socket {
			// Threads run away from their data: the local fraction becomes
			// remote and vice versa (the Remote DRAM thread sweep).
			rf = 1 - rf
		}
		pf := n.prefetchFrac(bt.group)
		if n.cfg.HardwarePrefetchGovernor {
			// §VI-B: hardware feedback-directed prefetch aggressiveness
			// (Srinath et al. style): back off quickly while the home
			// controller asserts distress, recover slowly when it is calm,
			// converging just below the saturation threshold.
			pf *= n.governorFactor(sock, pol.Subdomain)
		}
		bt.effectivePrefetch = pf
		// A prefetch-on core overfetches (1+PrefetchTraffic); a prefetch-off
		// core cannot hide latency and offers only NoPrefetchDemand of its
		// nominal streaming bandwidth.
		demandFactor := n.cfg.NoPrefetchDemand +
			(1+n.cfg.PrefetchTraffic-n.cfg.NoPrefetchDemand)*pf
		// MBA's rate controller sits at the core boundary: it scales DRAM
		// demand and LLC reuse traffic alike (paper §VI-D).
		mba := float64(bt.group.MBAPercent()) / 100
		active := effective[i]
		fl = append(fl, memsys.Flow{
			Task:         bt.task.Name(),
			Socket:       sock,
			Subdomain:    pol.Subdomain,
			DemandBW:     active * off.Mem.StreamBWPerCore * demandFactor * mba,
			RemoteFrac:   rf,
			LLCFootprint: off.Mem.LLCFootprint,
			LLCRefBW:     active * off.Mem.LLCRefBWPerCore * mba,
			LLCWayMask:   bt.group.LLCWays(),
			HighPriority: bt.group.Priority() == cgroup.High,
		})
		bt.hasFlow = true
		bt.flowIdx = len(fl) - 1
	}
	n.scratchFlows = fl

	res := n.resolve(fl)
	for i, bt := range n.tasks {
		if !bt.hasFlow {
			// Idle on the memory system this step; identity rates.
			bt.rates = identityRates()
			continue
		}
		fr := res.Flows[bt.flowIdx]
		r := workload.Rates{
			Latency:        fr.Latency,
			LatencyStretch: fr.LatencyStretch,
			BWFraction:     fr.BWFraction,
			LLCHit:         fr.LLCHit,
			Backpressure:   fr.Backpressure,
			SnoopStretch:   fr.SnoopStretch,
		}
		r.CPUFactor = workload.CPUFactor(offers[i].Mem, r, bt.effectivePrefetch) *
			workload.MBAPenalty(offers[i].Mem, float64(bt.group.MBAPercent())/100)
		bt.rates = r
	}

	n.prevCgroupGen = n.cgroups.Gen()
	n.prevProcGen = n.proc.Gen()
	n.prevMemEpoch = n.mem.Epoch()
	return res
}

// resolve resolves the memory system for fl. Flows were validated at
// construction; an error here is a programming bug.
func (n *Node) resolve(fl []memsys.Flow) *memsys.Resolution {
	res, err := n.mem.Resolve(fl)
	if err != nil {
		panic(fmt.Sprintf("node: resolve: %v", err))
	}
	return res
}

// incremental reports whether the node may reuse work across ticks at all:
// Config.NoIncremental turns it off, and so does the hardware prefetch
// governor, whose integral state mutates every tick.
func (n *Node) incremental() bool {
	return !n.cfg.NoIncremental && !n.cfg.HardwarePrefetchGovernor
}

// unchanged reports whether the node may reuse work and no control surface
// was actuated since the last flow assembly.
func (n *Node) unchanged() bool {
	return n.incremental() &&
		n.prevCgroupGen == n.cgroups.Gen() && n.prevProcGen == n.proc.Gen() &&
		n.prevMemEpoch == n.mem.Epoch()
}

// withinHorizon reports whether this step may skip the offer pass and flow
// assembly: now is before every task's offer horizon and nothing was
// actuated since the last flow assembly.
func (n *Node) withinHorizon(now sim.Time) bool {
	return now < n.horizon && n.unchanged()
}

// Run advances the node by d simulated seconds.
func (n *Node) Run(d sim.Duration) { n.engine.Run(d) }

// StartMeasurement begins the measured interval on every task.
func (n *Node) StartMeasurement() {
	now := n.engine.Now()
	for _, bt := range n.tasks {
		bt.task.StartMeasurement(now)
	}
}
