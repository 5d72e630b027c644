package policy

import (
	"fmt"

	"kelp/internal/events"
	"kelp/internal/node"
	"kelp/internal/perfmon"
)

// MBADecision records one control period of the MBA controller.
type MBADecision struct {
	Time     float64
	SocketBW float64
	Latency  float64
	Percent  int
}

// MBAControllerConfig parameterizes the MBA feedback loop.
type MBAControllerConfig struct {
	Socket       int
	Group        string
	Watermarks   ThrottlerWatermarks
	SamplePeriod float64
	// DegradeAfter / RecoverAfter are the watchdog thresholds; 0 selects
	// the core package defaults.
	DegradeAfter, RecoverAfter int
}

// FailSafeMBAPercent is the throttle level pinned while the MBA controller
// is in fail-safe mode: the hardest rate limit MBA offers, protecting the
// accelerated task at the cost of batch throughput.
const FailSafeMBAPercent = 10

// MBAController throttles the low-priority group's memory request rate via
// Intel MBA (paper §VI-D) instead of revoking cores: the same watermark
// feedback as CoreThrottle, actuating the hardware rate controller in 10%
// steps. The paper points out MBA's defect — its throttle also delays
// LLC-served requests — which the simulation reproduces, so this
// configuration trades less ML interference against outsized slowdown of
// cache-resident batch work.
type MBAController struct {
	n       *node.Node
	cfg     MBAControllerConfig
	cur     int
	deg     degradeState
	bounds  perfmon.Bounds
	history []MBADecision
}

// NewMBAController builds the controller at 100% (unthrottled).
func NewMBAController(n *node.Node, cfg MBAControllerConfig) (*MBAController, error) {
	if n == nil {
		return nil, fmt.Errorf("policy: nil node")
	}
	if _, err := n.Cgroups().Group(cfg.Group); err != nil {
		return nil, err
	}
	if cfg.SamplePeriod <= 0 {
		return nil, fmt.Errorf("policy: SamplePeriod = %v", cfg.SamplePeriod)
	}
	if cfg.DegradeAfter < 0 || cfg.RecoverAfter < 0 {
		return nil, fmt.Errorf("policy: mba degrade thresholds K=%d J=%d",
			cfg.DegradeAfter, cfg.RecoverAfter)
	}
	c := &MBAController{
		n:      n,
		cfg:    cfg,
		cur:    100,
		deg:    newDegradeState("mba", cfg.DegradeAfter, cfg.RecoverAfter),
		bounds: cfg.Watermarks.sanityBounds(),
	}
	if err := n.Cgroups().SetMBA(cfg.Group, c.cur); err != nil {
		return nil, err
	}
	return c, nil
}

// Percent returns the current MBA throttle level.
func (c *MBAController) Percent() int { return c.cur }

// Degraded reports whether the controller is in fail-safe mode.
func (c *MBAController) Degraded() bool { return c.deg.Guard.Degraded() }

// History returns a copy of the per-period decision trace.
func (c *MBAController) History() []MBADecision {
	return append([]MBADecision(nil), c.history...)
}

// Control implements sim.Controller, hardened like the other controllers:
// sanitized samples, scored enforcement failures, and a fail-safe mode
// that pins the hardest MBA throttle after K consecutive faulted periods.
func (c *MBAController) Control(now float64) {
	if c.n.Faults().Stall(now, "mba") {
		c.fault(now)
		return
	}
	s := c.n.Monitor().Window()
	if s.Elapsed == 0 {
		return
	}
	s, dropped := c.n.Faults().PerturbSample(now, "mba", s)
	if dropped {
		c.fault(now)
		return
	}
	if err := s.Check(c.bounds); err != nil {
		c.deg.reject(c.n, now, err)
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
	bw := s.SocketBW[c.cfg.Socket]
	lat := s.SocketLatency[c.cfg.Socket]
	w := c.cfg.Watermarks
	switch {
	case bw > w.SocketBWHigh || lat > w.LatencyHigh:
		if c.cur > 10 {
			c.cur -= 10
		}
	case bw < w.SocketBWLow && lat < w.LatencyLow:
		if c.cur < 100 {
			c.cur += 10
		}
	}
	if err := c.enforce(now); err != nil {
		c.deg.actuateError(c.n, now, err)
		c.fault(now)
		return
	}
	c.deg.clean(c.n, now)
	c.history = append(c.history, MBADecision{Time: now, SocketBW: bw, Latency: lat, Percent: c.cur})
	if rec := c.n.Events(); rec != nil {
		rec.Emit(now, events.MBAActuate, "mba", map[string]any{
			"socket_bw": bw, "latency": lat, "percent": c.cur,
		})
	}
}

// enforce pushes the current throttle level through the (possibly
// fault-gated) cgroup interface.
func (c *MBAController) enforce(now float64) error {
	return c.n.Faults().SetMBA(now, c.n.Cgroups(), c.cfg.Group, c.cur)
}

// enforceFailSafe pins the hardest throttle level.
func (c *MBAController) enforceFailSafe(now float64) error {
	c.cur = FailSafeMBAPercent
	return c.enforce(now)
}

// fault scores one faulted period, entering fail-safe after K in a row.
func (c *MBAController) fault(now float64) {
	if !c.deg.fault(c.n, now) {
		return
	}
	if err := c.enforceFailSafe(now); err != nil {
		c.deg.actuateError(c.n, now, err)
	}
}
