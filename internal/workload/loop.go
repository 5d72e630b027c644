package workload

import (
	"fmt"

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

// burstDemandFactor returns the demand multiplier at simulated time now.
func (c LoopConfig) burstDemandFactor(now float64) float64 {
	if c.BurstPeriod <= 0 {
		return 1
	}
	idle := c.BurstIdleFactor
	if idle <= 0 {
		idle = 0.3
	}
	pos := now + c.BurstPhase
	frac := pos/c.BurstPeriod - float64(int64(pos/c.BurstPeriod))
	if frac < c.BurstDuty {
		return 1
	}
	return idle
}

// Validate reports whether the configuration is usable.
func (c LoopConfig) Validate() error {
	if c.Threads < 1 {
		return fmt.Errorf("workload: Threads = %d", c.Threads)
	}
	if c.UnitWork <= 0 {
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

// SetThreads adjusts the worker count at runtime (the CPUML thread sweep).
func (l *Loop) SetThreads(n int) error {
	if n < 1 {
		return fmt.Errorf("workload: %s: SetThreads(%d)", l.name, n)
	}
	l.cfg.Threads = n
	return nil
}

// Offer implements Task: all threads are always runnable, capped by the
// available cores. Bursting scales the streaming demand with the job's
// current phase.
func (l *Loop) Offer(now float64, cores float64, o *Offer) {
	active := min(float64(l.cfg.Threads), cores)
	if active <= 0 {
		*o = Offer{}
		return
	}
	o.ActiveCores = active
	o.Mem = l.cfg.Mem
	if f := l.cfg.burstDemandFactor(now); f != 1 {
		o.Mem.StreamBWPerCore *= f
		o.Mem.LLCRefBWPerCore *= f
	}
}

// Advance implements Task.
func (l *Loop) Advance(now, dt float64, cores float64, r *Rates) {
	active := min(float64(l.cfg.Threads), cores)
	if active <= 0 {
		return
	}
	l.partial += dt * active * r.CPUFactor
	if n := l.partial / l.cfg.UnitWork; n >= 1 {
		whole := float64(int64(n))
		l.units.Add(now+dt, whole)
		l.partial -= whole * l.cfg.UnitWork
	}
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
