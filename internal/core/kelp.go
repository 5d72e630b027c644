// Package core implements the paper's primary contribution: the Kelp
// runtime (paper §IV). Kelp places the high-priority accelerated ML task and
// the low-priority CPU tasks into separate NUMA subdomains, samples four
// hardware measurements every period — socket bandwidth, socket memory
// latency, memory saturation (distress duty cycle), and high-priority
// subdomain bandwidth — and drives three actuators: the number of cores
// backfilled into the high-priority subdomain (Algorithm 2,
// ConfigHiPriority), and the low-priority subdomain's enabled-prefetcher
// count and core count (Algorithm 2, ConfigLoPriority).
//
// The control law is the paper's Algorithm 1 verbatim: watermark comparisons
// produce THROTTLE / BOOST / NOP decisions for each side, applied through
// the cgroup interface.
package core

import (
	"fmt"
	"math"

	"kelp/internal/cpu"
	"kelp/internal/events"
	"kelp/internal/node"
	"kelp/internal/perfmon"
)

// Action is a per-period control decision.
type Action int

// Actions (paper Algorithm 1).
const (
	NOP Action = iota
	Throttle
	Boost
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case Throttle:
		return "THROTTLE"
	case Boost:
		return "BOOST"
	default:
		return "NOP"
	}
}

// Watermarks are the per-application profile thresholds Kelp compares
// measurements against. The paper loads them from the application profile
// delivered by the cluster scheduler; high watermarks trigger THROTTLE, low
// watermarks allow BOOST.
type Watermarks struct {
	// HiPriorityBW thresholds apply to the high-priority subdomain's
	// bandwidth (bytes/s) and guard the backfilled tasks.
	HiPriorityBWHigh, HiPriorityBWLow float64
	// SocketBW thresholds apply to total socket bandwidth (bytes/s).
	SocketBWHigh, SocketBWLow float64
	// Latency thresholds apply to the socket's loaded memory latency
	// (seconds).
	LatencyHigh, LatencyLow float64
	// Saturation thresholds apply to the distress duty cycle in [0, 1].
	SaturationHigh, SaturationLow float64
}

// Validate reports whether each high watermark sits above its low one.
// Malformed profiles — NaN, infinite, negative, or inverted thresholds —
// are rejected here, at admission time, so a bad profile can never reach
// the control loop's comparisons (where NaN silently compares false and
// would wedge the controller at NOP forever).
func (w Watermarks) Validate() error {
	type pair struct {
		name    string
		hi, low float64
	}
	for _, p := range []pair{
		{"HiPriorityBW", w.HiPriorityBWHigh, w.HiPriorityBWLow},
		{"SocketBW", w.SocketBWHigh, w.SocketBWLow},
		{"Latency", w.LatencyHigh, w.LatencyLow},
		{"Saturation", w.SaturationHigh, w.SaturationLow},
	} {
		if math.IsNaN(p.hi) || math.IsNaN(p.low) || math.IsInf(p.hi, 0) || math.IsInf(p.low, 0) {
			return fmt.Errorf("core: %s watermarks hi=%v low=%v are not finite", p.name, p.hi, p.low)
		}
		if p.hi <= 0 || p.low < 0 || p.hi <= p.low {
			return fmt.Errorf("core: %s watermarks hi=%v low=%v", p.name, p.hi, p.low)
		}
	}
	// Saturation is a duty cycle: a high watermark above 1 can never fire
	// and silently disables the distress comparison.
	if w.SaturationHigh > 1 {
		return fmt.Errorf("core: Saturation watermark hi=%v > 1", w.SaturationHigh)
	}
	return nil
}

// DefaultWatermarks returns conservative thresholds for the default node:
// throttle when a subdomain controller passes ~70% utilization, when loaded
// latency exceeds 2x base, or when any distress is measurable. The paper
// notes thresholds are "configured conservatively to prioritize accelerated
// tasks" (§IV-D).
func DefaultWatermarks(controllerBW, baseLatency float64) Watermarks {
	return Watermarks{
		HiPriorityBWHigh: 0.70 * controllerBW,
		HiPriorityBWLow:  0.45 * controllerBW,
		SocketBWHigh:     0.75 * 2 * controllerBW,
		SocketBWLow:      0.50 * 2 * controllerBW,
		LatencyHigh:      2.0 * baseLatency,
		LatencyLow:       1.3 * baseLatency,
		SaturationHigh:   0.05,
		SaturationLow:    0.01,
	}
}

// Config parameterizes the Kelp runtime on one socket.
type Config struct {
	// Socket is the managed socket (the one hosting the accelerated task).
	Socket int
	// HighSubdomain hosts the ML task; LowSubdomain hosts low-priority
	// tasks.
	HighSubdomain, LowSubdomain int
	// LowGroup is the cgroup of low-priority tasks in the low subdomain.
	LowGroup string
	// BackfillGroup is the cgroup of low-priority tasks backfilled into the
	// high-priority subdomain. Empty disables backfilling (the paper's
	// KP-SD configuration).
	BackfillGroup string
	// Watermarks is the application profile.
	Watermarks Watermarks
	// MinLowCores/MaxLowCores bound the low subdomain's low-priority cores.
	MinLowCores, MaxLowCores int
	// MinBackfillCores/MaxBackfillCores bound backfilled cores in the high
	// subdomain.
	MinBackfillCores, MaxBackfillCores int
	// SamplePeriod is the control interval (10 s in production; the paper
	// reports Kelp is insensitive to it, which our ablation bench checks).
	SamplePeriod float64
	// DegradeAfter (K) is the number of consecutive faulted control
	// periods — dropped or rejected samples, stalls, failed actuations —
	// after which the runtime enters fail-safe mode. 0 selects
	// DefaultDegradeAfter.
	DegradeAfter int
	// RecoverAfter (J) is the number of consecutive clean periods after
	// which the runtime leaves fail-safe mode. 0 selects
	// DefaultRecoverAfter.
	RecoverAfter int
}

// Validate reports whether the configuration is usable on the given node.
func (c Config) Validate(n *node.Node) error {
	topo := n.Processor().Topology()
	if c.Socket < 0 || c.Socket >= topo.Sockets {
		return fmt.Errorf("core: socket %d out of range", c.Socket)
	}
	for _, sd := range []int{c.HighSubdomain, c.LowSubdomain} {
		if sd < 0 || sd >= topo.SubdomainsPerSocket {
			return fmt.Errorf("core: subdomain %d out of range", sd)
		}
	}
	if c.HighSubdomain == c.LowSubdomain {
		return fmt.Errorf("core: high and low subdomains must differ")
	}
	if c.LowGroup == "" {
		return fmt.Errorf("core: LowGroup required")
	}
	if _, err := n.Cgroups().Group(c.LowGroup); err != nil {
		return err
	}
	if c.BackfillGroup != "" {
		if _, err := n.Cgroups().Group(c.BackfillGroup); err != nil {
			return err
		}
		if c.MinBackfillCores < 0 || c.MaxBackfillCores < c.MinBackfillCores {
			return fmt.Errorf("core: backfill core bounds [%d, %d]",
				c.MinBackfillCores, c.MaxBackfillCores)
		}
	}
	if c.MinLowCores < 1 || c.MaxLowCores < c.MinLowCores {
		return fmt.Errorf("core: low core bounds [%d, %d]", c.MinLowCores, c.MaxLowCores)
	}
	if math.IsNaN(c.SamplePeriod) || c.SamplePeriod <= 0 {
		return fmt.Errorf("core: SamplePeriod = %v", c.SamplePeriod)
	}
	if c.DegradeAfter < 0 || c.RecoverAfter < 0 {
		return fmt.Errorf("core: degrade thresholds K=%d J=%d must be non-negative",
			c.DegradeAfter, c.RecoverAfter)
	}
	return c.Watermarks.Validate()
}

// SampleBounds derives plausibility limits for incoming samples from a
// controller's socket-bandwidth and latency high watermarks: any reading
// an order of magnitude beyond the highest actionable threshold is a
// glitched counter, not a workload.
func SampleBounds(socketBWHigh, latencyHigh float64) perfmon.Bounds {
	return perfmon.Bounds{
		MaxBW:      16 * socketBWHigh,
		MaxLatency: 64 * latencyHigh,
	}
}

// Decision records one control period's measurements and actions, feeding
// the paper's actuator plots (Figs. 11, 12).
type Decision struct {
	Time           float64
	SocketBW       float64
	SocketLatency  float64
	Saturation     float64
	HiPriorityBW   float64
	ActionHigh     Action
	ActionLow      Action
	BackfillCores  int
	LowCores       int
	LowPrefetchers int
}

// Runtime is the Kelp node runtime. It implements sim.Controller.
type Runtime struct {
	n   *node.Node
	cfg Config

	lowPool      cpu.Set // all cores the low group may ever use
	backfillPool cpu.Set // all cores the backfill group may ever use

	backfillCores  int
	lowCores       int
	lowPrefetchers int

	period Period
	bounds perfmon.Bounds
	// sample and decision carry one period's reading from Sense to Act and
	// its decision from Act to Record.
	sample   perfmon.Sample
	decision Decision

	history []Decision
}

// New builds a Kelp runtime over an already-placed node: the ML task's
// group must be pinned to the high subdomain and the low/backfill groups
// created. The runtime takes ownership of the low and backfill groups'
// cpusets and prefetcher settings.
func New(n *node.Node, cfg Config) (*Runtime, error) {
	if n == nil {
		return nil, fmt.Errorf("core: nil node")
	}
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	r := &Runtime{
		n:            n,
		cfg:          cfg,
		lowPool:      n.Processor().SubdomainCores(cfg.Socket, cfg.LowSubdomain),
		backfillPool: n.Processor().SubdomainCores(cfg.Socket, cfg.HighSubdomain),
		period:       NewPeriod(n, "kelp", cfg.DegradeAfter, cfg.RecoverAfter),
		bounds:       SampleBounds(cfg.Watermarks.SocketBWHigh, cfg.Watermarks.LatencyHigh),
	}
	if cfg.MaxLowCores > r.lowPool.Len() {
		return nil, fmt.Errorf("core: MaxLowCores %d exceeds subdomain's %d cores",
			cfg.MaxLowCores, r.lowPool.Len())
	}
	// Start optimistic: all low cores with all prefetchers on, no backfill
	// (backfill grows only when the system proves calm).
	r.lowCores = cfg.MaxLowCores
	r.lowPrefetchers = cfg.MaxLowCores
	r.backfillCores = cfg.MinBackfillCores
	// Boot-time configuration happens before any injector is attached to
	// the node (see node.SetFaults), so this write is never fault-gated.
	if err := r.enforce(0); err != nil {
		return nil, err
	}
	return r, nil
}

// Config returns the runtime configuration.
func (r *Runtime) Config() Config { return r.cfg }

// History returns a copy of the per-period decision trace; callers may
// append to or mutate it freely without corrupting the actuator record
// behind the Fig. 11/12 case studies.
func (r *Runtime) History() []Decision {
	return append([]Decision(nil), r.history...)
}

// BackfillCores returns the currently granted backfill core count.
func (r *Runtime) BackfillCores() int { return r.backfillCores }

// LowCores returns the low subdomain's current low-priority core count.
func (r *Runtime) LowCores() int { return r.lowCores }

// LowPrefetchers returns the low group's enabled-prefetcher count.
func (r *Runtime) LowPrefetchers() int { return r.lowPrefetchers }

// Degraded reports whether the runtime is in fail-safe mode.
func (r *Runtime) Degraded() bool { return r.period.Guard.Degraded() }

// Control implements sim.Controller: one iteration of Algorithm 1,
// hardened against a faulty signal path by the shared control Period.
// Sensor readings are sanitized before they are acted on and enforcement
// failures are scored instead of crashing; after K consecutive faulted
// periods the runtime falls back to a conservative static configuration
// (minimum low-priority cores, prefetchers off, minimum backfill) and
// resumes closed-loop control only after J consecutive clean periods.
func (r *Runtime) Control(now float64) { r.period.Run(now, r) }

// Sense implements Plant: the PMU window, sanitized against the profile's
// sanity bounds.
func (r *Runtime) Sense(now float64) (Sensed, error) {
	s, st, err := r.period.SenseWindow(now, r.bounds)
	r.sample = s
	return st, err
}

// Act implements Plant: Algorithm 1's decision, Algorithm 2's actuator
// steps, and EnforceConfig.
func (r *Runtime) Act(now float64) error {
	r.decision = r.decide(now, r.sample)
	r.configHiPriority(r.decision.ActionHigh)
	r.configLoPriority(r.decision.ActionLow)
	return r.enforce(now)
}

// FailSafe implements Plant: the conservative static configuration — the
// low subdomain shrunk to its minimum core count with every prefetcher
// off, and backfill at its floor — the CoreThrottle-like stance that
// protects the accelerated task when the feedback loop cannot be trusted.
func (r *Runtime) FailSafe(now float64) error {
	r.lowCores = r.cfg.MinLowCores
	r.lowPrefetchers = 0
	r.backfillCores = r.cfg.MinBackfillCores
	return r.enforce(now)
}

// Record implements Plant: the period's decision joins the actuator trace
// and the kelp.actuate event stream.
func (r *Runtime) Record(now float64) {
	d := r.decision
	d.BackfillCores = r.backfillCores
	d.LowCores = r.lowCores
	d.LowPrefetchers = r.lowPrefetchers
	r.history = append(r.history, d)
	if rec := r.n.Events(); rec != nil {
		rec.Emit(now, events.KelpActuate, "kelp", map[string]any{
			"action_high":     d.ActionHigh.String(),
			"action_low":      d.ActionLow.String(),
			"socket_bw":       d.SocketBW,
			"socket_latency":  d.SocketLatency,
			"saturation":      d.Saturation,
			"hipri_bw":        d.HiPriorityBW,
			"low_cores":       d.LowCores,
			"low_prefetchers": d.LowPrefetchers,
			"backfill_cores":  d.BackfillCores,
		})
	}
}

// decide evaluates Algorithm 1's watermark comparisons.
func (r *Runtime) decide(now float64, s perfmon.Sample) Decision {
	w := r.cfg.Watermarks
	sock := r.cfg.Socket
	bwS := s.SocketBW[sock]
	latS := s.SocketLatency[sock]
	satS := s.SocketSaturation[sock]
	bwH := s.SubdomainBW(sock, r.cfg.HighSubdomain)
	// The high-priority decision reads the high subdomain's own latency:
	// the socket mean is dominated by the (intentionally saturated) low
	// subdomain, which would permanently veto backfilling.
	latH := s.SubdomainLatency(sock, r.cfg.HighSubdomain)

	d := Decision{
		Time:          now,
		SocketBW:      bwS,
		SocketLatency: latS,
		Saturation:    satS,
		HiPriorityBW:  bwH,
	}

	// Lines 4-9: high-priority subdomain (backfilled tasks).
	switch {
	case bwH > w.HiPriorityBWHigh || latH > w.LatencyHigh:
		d.ActionHigh = Throttle
	case bwH < w.HiPriorityBWLow && latH < w.LatencyLow:
		d.ActionHigh = Boost
	default:
		d.ActionHigh = NOP
	}

	// Lines 10-15: low-priority subdomain.
	switch {
	case bwS > w.SocketBWHigh || latS > w.LatencyHigh || satS > w.SaturationHigh:
		d.ActionLow = Throttle
	case bwS < w.SocketBWLow && latS < w.LatencyLow && satS < w.SaturationLow:
		d.ActionLow = Boost
	default:
		d.ActionLow = NOP
	}
	return d
}

// configHiPriority is Algorithm 2, procedure ConfigHiPriority: adjust the
// number of cores backfilled into the high-priority subdomain.
func (r *Runtime) configHiPriority(a Action) {
	if r.cfg.BackfillGroup == "" {
		return
	}
	switch a {
	case Throttle:
		if r.backfillCores > r.cfg.MinBackfillCores {
			r.backfillCores--
		}
	case Boost:
		if r.backfillCores < r.cfg.MaxBackfillCores {
			r.backfillCores++
		}
	}
}

// configLoPriority is Algorithm 2, procedure ConfigLoPriority: prefetchers
// are halved before cores are revoked (throttle), and restored one at a
// time before cores are returned (boost) — prefetcher toggling is cheaper
// than core revocation, so it is exercised first in both directions.
func (r *Runtime) configLoPriority(a Action) {
	switch a {
	case Throttle:
		if r.lowPrefetchers > 0 {
			r.lowPrefetchers /= 2
		} else if r.lowCores > r.cfg.MinLowCores {
			r.lowCores--
		}
	case Boost:
		if r.lowPrefetchers < r.lowCores {
			r.lowPrefetchers++
		} else if r.lowCores < r.cfg.MaxLowCores {
			// Growing lowCores keeps lowPrefetchers <= lowCores, so no
			// clamp is needed on this branch.
			r.lowCores++
		}
	}
	if r.lowPrefetchers > r.lowCores {
		r.lowPrefetchers = r.lowCores
	}
}

// RuntimeState is a snapshot of the runtime's mutable control state; it
// travels inside policy.State. Actuator effects (cpusets, prefetch flags)
// are captured by the node snapshot; this carries only what the runtime
// itself remembers.
type RuntimeState struct {
	BackfillCores, LowCores, LowPrefetchers int
	Guard                                   Guard
	History                                 []Decision
}

// Snapshot captures the runtime's control state.
func (r *Runtime) Snapshot() RuntimeState {
	return RuntimeState{
		BackfillCores:  r.backfillCores,
		LowCores:       r.lowCores,
		LowPrefetchers: r.lowPrefetchers,
		Guard:          r.period.Guard,
		History:        append([]Decision(nil), r.history...),
	}
}

// Restore installs a snapshot taken by Snapshot on a runtime built from the
// same configuration. It does not actuate: the node snapshot restores the
// cgroup state the runtime had enforced.
func (r *Runtime) Restore(st RuntimeState) {
	r.backfillCores = st.BackfillCores
	r.lowCores = st.LowCores
	r.lowPrefetchers = st.LowPrefetchers
	r.period.Guard = st.Guard
	r.history = append(r.history[:0], st.History...)
}

// enforce pushes the current actuator values through the cgroup interface
// (Algorithm 1, EnforceConfig). Writes are routed through the node's fault
// injector, which adds read-back verification and bounded retry when
// attached and is an exact pass-through when not.
func (r *Runtime) enforce(now float64) error {
	inj := r.n.Faults()
	cg := r.n.Cgroups()
	if err := inj.SetCPUs(now, cg, r.cfg.LowGroup, r.lowPool.Prefix(r.lowCores)); err != nil {
		return err
	}
	if err := inj.SetPrefetchCount(now, cg, r.cfg.LowGroup, r.lowPrefetchers); err != nil {
		return err
	}
	if r.cfg.BackfillGroup != "" {
		// Backfill from the top of the high subdomain's core list so the ML
		// task's reserved cores (assigned from the bottom) stay untouched.
		pool := r.backfillPool
		take := r.backfillCores
		if take > pool.Len() {
			take = pool.Len()
		}
		if err := inj.SetCPUs(now, cg, r.cfg.BackfillGroup, pool[pool.Len()-take:]); err != nil {
			return err
		}
	}
	return nil
}
