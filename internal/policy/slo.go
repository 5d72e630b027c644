package policy

import (
	"fmt"
	"math"

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
	deg     degradeState
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
		n:   n,
		cfg: cfg,
		cur: cfg.MaxCores,
		deg: newDegradeState("slo", cfg.DegradeAfter, cfg.RecoverAfter),
	}
	if err := n.Cgroups().SetCPUs(cfg.Group, cfg.Pool.Take(c.cur)); err != nil {
		return nil, err
	}
	return c, nil
}

// Cores returns the currently granted core count.
func (c *SLOController) Cores() int { return c.cur }

// Degraded reports whether the controller is in fail-safe mode.
func (c *SLOController) Degraded() bool { return c.deg.Guard.Degraded() }

// History returns per-period decisions (do not mutate).
func (c *SLOController) History() []SLODecision { return c.history }

// Control implements sim.Controller. The SLO controller reads the
// protected server's tail latency rather than the PMU, so sensor
// perturbation does not apply; it still sanitizes the tail reading, routes
// its core writes through the fault gate, and degrades to the minimum
// grant after K consecutive faulted periods.
func (c *SLOController) Control(now float64) {
	if c.n.Faults().Stall(now, "slo") {
		c.fault(now)
		return
	}
	tail := c.cfg.Server.WindowTailLatency(0.95)
	if tail == 0 {
		return // no completions in the window: nothing to react to
	}
	if math.IsNaN(tail) || math.IsInf(tail, 0) || tail < 0 {
		c.deg.reject(c.n, now, fmt.Errorf("policy: tail p95 = %v", tail))
		c.fault(now)
		return
	}
	if c.deg.Guard.Degraded() {
		if err := c.enforceFailSafe(now); err != nil {
			c.deg.actuateError(c.n, now, err)
			c.deg.Guard.Fault()
			return
		}
		c.deg.clean(c.n, now)
		return
	}
	switch {
	case tail > c.cfg.TargetP95:
		// SLO violation: revoke aggressively (half the allocation), the
		// way Heracles disables best-effort growth on violations.
		c.cur /= 2
		if c.cur < c.cfg.MinCores {
			c.cur = c.cfg.MinCores
		}
	case tail < c.cfg.TargetP95*(1-c.cfg.Headroom):
		if c.cur < c.cfg.MaxCores {
			c.cur++
		}
	}
	if err := c.enforce(now); err != nil {
		c.deg.actuateError(c.n, now, err)
		c.fault(now)
		return
	}
	c.deg.clean(c.n, now)
	c.history = append(c.history, SLODecision{Time: now, TailP95: tail, Cores: c.cur})
}

// enforce pushes the current grant through the (possibly fault-gated)
// cgroup interface.
func (c *SLOController) enforce(now float64) error {
	return c.n.Faults().SetCPUs(now, c.n.Cgroups(), c.cfg.Group, c.cfg.Pool.Take(c.cur))
}

// enforceFailSafe pins the minimum core grant.
func (c *SLOController) enforceFailSafe(now float64) error {
	c.cur = c.cfg.MinCores
	return c.enforce(now)
}

// fault scores one faulted period, entering fail-safe after K in a row.
func (c *SLOController) fault(now float64) {
	if !c.deg.fault(c.n, now) {
		return
	}
	if err := c.enforceFailSafe(now); err != nil {
		c.deg.actuateError(c.n, now, err)
	}
}
