package policy

import (
	"fmt"
	"math"

	"kelp/internal/core"
	"kelp/internal/cpu"
	"kelp/internal/node"
	"kelp/internal/workload"
)

// SLODecision records one control period of the latency-target controller.
type SLODecision struct {
	Time    float64
	TailP95 float64
	Cores   int
}

// SLOControllerConfig parameterizes the Heracles-style controller.
type SLOControllerConfig struct {
	// Server is the latency-critical inference task the SLO protects.
	Server *workload.Inference
	// TargetP95 is the latency objective, seconds.
	TargetP95 float64
	// Group / Pool / bounds define the low-priority core actuator.
	Group              string
	Pool               cpu.Set
	MinCores, MaxCores int
	SamplePeriod       float64
	// Headroom is the fraction of the target below which the controller
	// grows the low-priority allocation again (Heracles' "slack").
	Headroom float64
	// DegradeAfter / RecoverAfter are the watchdog thresholds; 0 selects
	// the core package defaults.
	DegradeAfter, RecoverAfter int
}

// SLOController is a latency-target feedback loop in the style of Heracles
// (the paper's [28]) and Dirigent [29]: it samples the protected server's
// recent tail latency and revokes or restores the colocated tasks' cores to
// keep the tail under the objective. Unlike Kelp it needs an explicit
// application-level SLO signal, and like CoreThrottle it can only react a
// sampling period after the damage is visible in the tail.
type SLOController struct {
	n       *node.Node
	cfg     SLOControllerConfig
	cur     int
	period  core.Period
	tail    float64 // the period's sensed p95
	history []SLODecision
}

// NewSLOController builds the controller with the full mask granted.
func NewSLOController(n *node.Node, cfg SLOControllerConfig) (*SLOController, error) {
	if n == nil {
		return nil, fmt.Errorf("policy: nil node")
	}
	if cfg.Server == nil {
		return nil, fmt.Errorf("policy: SLO controller needs a server")
	}
	if cfg.TargetP95 <= 0 {
		return nil, fmt.Errorf("policy: TargetP95 = %v", cfg.TargetP95)
	}
	if _, err := n.Cgroups().Group(cfg.Group); err != nil {
		return nil, err
	}
	if cfg.MinCores < 1 || cfg.MaxCores < cfg.MinCores || cfg.MaxCores > cfg.Pool.Len() {
		return nil, fmt.Errorf("policy: SLO core bounds [%d, %d] over %d cores",
			cfg.MinCores, cfg.MaxCores, cfg.Pool.Len())
	}
	if cfg.SamplePeriod <= 0 {
		return nil, fmt.Errorf("policy: SamplePeriod = %v", cfg.SamplePeriod)
	}
	if cfg.Headroom <= 0 || cfg.Headroom >= 1 {
		return nil, fmt.Errorf("policy: Headroom = %v not in (0,1)", cfg.Headroom)
	}
	if cfg.DegradeAfter < 0 || cfg.RecoverAfter < 0 {
		return nil, fmt.Errorf("policy: SLO degrade thresholds K=%d J=%d",
			cfg.DegradeAfter, cfg.RecoverAfter)
	}
	c := &SLOController{
		n:      n,
		cfg:    cfg,
		cur:    cfg.MaxCores,
		period: core.NewPeriod(n, "slo", cfg.DegradeAfter, cfg.RecoverAfter),
	}
	if err := n.Cgroups().SetCPUs(cfg.Group, cfg.Pool.Take(c.cur)); err != nil {
		return nil, err
	}
	return c, nil
}

// Cores returns the currently granted core count.
func (c *SLOController) Cores() int { return c.cur }

// Degraded reports whether the controller is in fail-safe mode.
func (c *SLOController) Degraded() bool { return c.period.Guard.Degraded() }

// History returns per-period decisions (do not mutate).
func (c *SLOController) History() []SLODecision { return c.history }

// Control implements sim.Controller. The SLO controller reads the
// protected server's tail latency rather than the PMU, so sensor
// perturbation does not apply; it still sanitizes the tail reading, routes
// its core writes through the fault gate, and degrades to the minimum
// grant after K consecutive faulted periods.
func (c *SLOController) Control(now float64) { c.period.Run(now, c) }

// Sense implements core.Plant: the server's windowed p95, rejected when it
// is not a finite non-negative latency.
func (c *SLOController) Sense(now float64) (core.Sensed, error) {
	tail := c.cfg.Server.WindowTailLatency(0.95)
	if tail == 0 {
		return core.SenseEmpty, nil // no completions in the window: nothing to react to
	}
	if math.IsNaN(tail) || math.IsInf(tail, 0) || tail < 0 {
		return core.SenseRejected, fmt.Errorf("policy: tail p95 = %v", tail)
	}
	c.tail = tail
	return core.SenseOK, nil
}

// Act implements core.Plant.
func (c *SLOController) Act(now float64) error {
	switch {
	case c.tail > c.cfg.TargetP95:
		// SLO violation: revoke aggressively (half the allocation), the
		// way Heracles disables best-effort growth on violations.
		c.cur /= 2
		if c.cur < c.cfg.MinCores {
			c.cur = c.cfg.MinCores
		}
	case c.tail < c.cfg.TargetP95*(1-c.cfg.Headroom):
		if c.cur < c.cfg.MaxCores {
			c.cur++
		}
	}
	return c.enforce(now)
}

// FailSafe implements core.Plant: pin the minimum core grant.
func (c *SLOController) FailSafe(now float64) error {
	c.cur = c.cfg.MinCores
	return c.enforce(now)
}

// Record implements core.Plant.
func (c *SLOController) Record(now float64) {
	c.history = append(c.history, SLODecision{Time: now, TailP95: c.tail, Cores: c.cur})
}

// enforce pushes the current grant through the (possibly fault-gated)
// cgroup interface.
func (c *SLOController) enforce(now float64) error {
	return c.n.Faults().SetCPUs(now, c.n.Cgroups(), c.cfg.Group, c.cfg.Pool.Prefix(c.cur))
}
