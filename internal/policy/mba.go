package policy

import (
	"fmt"

	"kelp/internal/events"
	"kelp/internal/node"
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
	cfg     MBAControllerConfig
	loop    socketLoop
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
	c := &MBAController{cfg: cfg}
	c.loop = newSocketLoop(n, "mba", cfg.Socket, cfg.Watermarks,
		FailSafeMBAPercent, 100, 10, cfg.DegradeAfter, cfg.RecoverAfter, c)
	if err := n.Cgroups().SetMBA(cfg.Group, c.loop.cur); err != nil {
		return nil, err
	}
	return c, nil
}

// Degraded reports whether the controller is in fail-safe mode.
func (c *MBAController) Degraded() bool { return c.loop.period.Guard.Degraded() }

// Control implements sim.Controller, hardened like the other controllers:
// sanitized samples, scored enforcement failures, and a fail-safe mode
// that pins the hardest MBA throttle after K consecutive faulted periods.
func (c *MBAController) Control(now float64) { c.loop.period.Run(now, &c.loop) }

// set pushes a throttle level through the (possibly fault-gated) cgroup
// interface.
func (c *MBAController) set(now float64, percent int) error {
	n := c.loop.n
	return n.Faults().SetMBA(now, n.Cgroups(), c.cfg.Group, percent)
}

func (c *MBAController) record(now, bw, lat float64, percent int) {
	c.history = append(c.history, MBADecision{Time: now, SocketBW: bw, Latency: lat, Percent: percent})
	if rec := c.loop.n.Events(); rec != nil {
		rec.Emit(now, events.MBAActuate, "mba", map[string]any{
			"socket_bw": bw, "latency": lat, "percent": percent,
		})
	}
}
