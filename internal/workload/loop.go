package workload

import (
	"fmt"
	"math"

	"kelp/internal/metrics"
)

// LoopConfig parameterizes a Loop task: an open-ended multi-threaded CPU
// kernel that repeatedly performs the same work. All of the paper's
// synthetic aggressors (LLC, DRAM, Remote DRAM) and low-priority batch jobs
// (Stream, Stitch, CPUML) are Loop instances with different profiles.
type LoopConfig struct {
	// Threads is the number of worker threads the job runs.
	Threads int
	// Mem is the kernel's memory behaviour.
	Mem MemProfile
	// UnitWork is core-seconds of full-speed work per unit of output
	// (a panorama tile, a training example, ...). Throughput is units/s.
	UnitWork float64
	// BurstPeriod/BurstDuty give the job a phased memory profile: for
	// BurstDuty of every BurstPeriod it offers full StreamBWPerCore, and
	// BurstIdleFactor of it otherwise (an I/O-then-compute pipeline).
	// Phase changes faster than a controller's sampling period are exactly
	// what defeats reactive core throttling in the paper (§I, Fig. 3).
	// BurstPeriod 0 disables bursting.
	BurstPeriod float64
	BurstDuty   float64
	// BurstIdleFactor is the demand multiplier outside bursts (default 0.3
	// when bursting).
	BurstIdleFactor float64
	// BurstPhase offsets the burst schedule, desynchronizing instances.
	BurstPhase float64
}

// burstEdgeMargin is how far before a burst edge a bursting Loop's offer
// horizon ends. The edge is recomputed in floating point, and the margin
// absorbs its rounding: a tick that lands inside it simply re-offers.
const burstEdgeMargin = 1e-9

// burst returns the demand multiplier at simulated time now and the burst
// edge after now, where the multiplier next changes (+Inf when it never
// does).
func (c LoopConfig) burst(now float64) (factor, edge float64) {
	if c.BurstPeriod <= 0 {
		return 1, math.Inf(1)
	}
	idle := c.BurstIdleFactor
	if idle <= 0 {
		idle = 0.3
	}
	pos := now + c.BurstPhase
	q := float64(int64(pos / c.BurstPeriod))
	frac := pos/c.BurstPeriod - q
	if frac >= c.BurstDuty {
		return idle, (q+1)*c.BurstPeriod - c.BurstPhase
	}
	if c.BurstDuty >= 1 {
		return 1, math.Inf(1)
	}
	// Before the schedule's origin (pos < 0) frac is never positive, so
	// the job bursts until the origin period's duty window closes.
	return 1, (max(q, 0)+c.BurstDuty)*c.BurstPeriod - c.BurstPhase
}

// Validate reports whether the configuration is usable.
func (c LoopConfig) Validate() error {
	if c.Threads < 1 {
		return fmt.Errorf("workload: Threads = %d", c.Threads)
	}
	if !(c.UnitWork > 0) || math.IsInf(c.UnitWork, 1) {
		return fmt.Errorf("workload: UnitWork = %v", c.UnitWork)
	}
	if c.BurstPeriod < 0 {
		return fmt.Errorf("workload: BurstPeriod = %v", c.BurstPeriod)
	}
	if c.BurstPeriod > 0 && (c.BurstDuty <= 0 || c.BurstDuty > 1) {
		return fmt.Errorf("workload: BurstDuty = %v", c.BurstDuty)
	}
	if c.BurstIdleFactor < 0 || c.BurstIdleFactor > 1 {
		return fmt.Errorf("workload: BurstIdleFactor = %v", c.BurstIdleFactor)
	}
	return c.Mem.Validate()
}

// Loop is an open-ended CPU task. It implements Task.
type Loop struct {
	name string
	cfg  LoopConfig

	partial float64 // core-seconds toward the next unit
	units   metrics.Meter
}

// NewLoop builds a loop task.
func NewLoop(name string, cfg LoopConfig) (*Loop, error) {
	if name == "" {
		return nil, fmt.Errorf("workload: empty task name")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Loop{name: name, cfg: cfg}, nil
}

// MustLoop is NewLoop that panics on invalid arguments.
func MustLoop(name string, cfg LoopConfig) *Loop {
	l, err := NewLoop(name, cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Name implements Task.
func (l *Loop) Name() string { return l.name }

// Config returns the loop configuration.
func (l *Loop) Config() LoopConfig { return l.cfg }

// Offer implements Task: all threads are always runnable, capped by the
// available cores. Bursting scales the streaming demand with the job's
// current phase, so a bursting offer holds until the next burst edge.
func (l *Loop) Offer(now float64, cores float64, o *Offer) (until float64) {
	active := min(float64(l.cfg.Threads), cores)
	if active <= 0 {
		*o = Offer{}
		return math.Inf(1)
	}
	o.ActiveCores = active
	o.Mem = l.cfg.Mem
	f, edge := l.cfg.burst(now)
	if f != 1 {
		o.Mem.StreamBWPerCore *= f
		o.Mem.LLCRefBWPerCore *= f
	}
	return edge - burstEdgeMargin
}

// Advance implements Task: AdvanceN for one tick.
// A loop's offer depends only on time and cores, so it never reports
// reoffer.
func (l *Loop) Advance(now, dt float64, cores float64, r *Rates) (reoffer bool) {
	l.AdvanceN(now, dt, 1, cores, r)
	return false
}

// AdvanceN progresses the loop by k ticks of dt from now, on constant cores
// and rates. It is exactly k Advance calls, the i-th at now advanced by i
// repeated adds of dt: every tick adds the same work to the partial unit
// in the same order, so the node can hand a loop a whole run in one call.
// A unit completes when the partial unit reaches UnitWork; for a positive
// UnitWork u that is p/u >= 1 exactly when p >= u, since rounding is
// monotone and the largest float below u, divided by u, rounds below 1.
// So only a tick that completes a unit divides.
func (l *Loop) AdvanceN(now, dt float64, k int, cores float64, r *Rates) {
	active := min(float64(l.cfg.Threads), cores)
	if active <= 0 {
		return
	}
	work := dt * active * r.CPUFactor
	p, u := l.partial, l.cfg.UnitWork
	for ; k > 0; k-- {
		p += work
		if p >= u {
			whole := float64(int64(p / u))
			l.units.Add(now+dt, whole)
			p -= whole * u
		}
		now += dt
	}
	l.partial = p
}

// StartMeasurement implements Task.
func (l *Loop) StartMeasurement(now float64) { l.units.StartMeasurement(now) }

// Throughput implements Task: output units per second.
func (l *Loop) Throughput(now float64) float64 { return l.units.Rate(now) }

// Units returns output completed in the measured interval.
func (l *Loop) Units() float64 { return l.units.Total() }

// StandaloneRate returns the uncontended throughput with all threads on
// dedicated cores (prefetchers on, unloaded memory). Full rate corresponds
// to CPUFactor 1.
func (l *Loop) StandaloneRate() float64 {
	return float64(l.cfg.Threads) / l.cfg.UnitWork
}
