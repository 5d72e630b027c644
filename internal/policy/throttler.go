package policy

import (
	"fmt"

	"kelp/internal/cpu"
	"kelp/internal/events"
	"kelp/internal/node"
	"kelp/internal/perfmon"
)

// ThrottlerWatermarks are CoreThrottle's thresholds. Prior work (Heracles,
// Dirigent, CPI^2) reacts to socket bandwidth and latency only — it predates
// the distress-signal measurement, which is exactly the gap Kelp exploits.
type ThrottlerWatermarks struct {
	SocketBWHigh, SocketBWLow float64
	LatencyHigh, LatencyLow   float64
}

// DefaultThrottlerWatermarks mirrors the conservative Kelp thresholds at
// socket scope.
func DefaultThrottlerWatermarks(socketBW, baseLatency float64) ThrottlerWatermarks {
	return ThrottlerWatermarks{
		SocketBWHigh: 0.75 * socketBW,
		SocketBWLow:  0.50 * socketBW,
		LatencyHigh:  3.0 * baseLatency,
		LatencyLow:   2.0 * baseLatency,
	}
}

// ThrottlerConfig parameterizes the CoreThrottle controller.
type ThrottlerConfig struct {
	Socket       int
	Group        string
	Pool         cpu.Set
	MinCores     int
	MaxCores     int
	Watermarks   ThrottlerWatermarks
	SamplePeriod float64
	// DegradeAfter / RecoverAfter are the watchdog thresholds (K faulted
	// periods to enter fail-safe, J clean ones to leave); 0 selects the
	// core package defaults.
	DegradeAfter, RecoverAfter int
}

// ThrottlerDecision records one control period for the actuator plots
// (Fig. 11a, Fig. 12a).
type ThrottlerDecision struct {
	Time     float64
	SocketBW float64
	Latency  float64
	Cores    int
}

// Throttler is the CoreThrottle runtime: a feedback loop that narrows or
// widens the low-priority tasks' CPU mask (paper §V-A, configuration CT,
// mimicking [28][29][30]).
type Throttler struct {
	n       *node.Node
	cfg     ThrottlerConfig
	cur     int
	deg     degradeState
	bounds  perfmon.Bounds
	history []ThrottlerDecision
}

// NewThrottler builds the controller and grants the full mask initially.
func NewThrottler(n *node.Node, cfg ThrottlerConfig) (*Throttler, error) {
	if n == nil {
		return nil, fmt.Errorf("policy: nil node")
	}
	if cfg.Group == "" {
		return nil, fmt.Errorf("policy: throttler needs a group")
	}
	if _, err := n.Cgroups().Group(cfg.Group); err != nil {
		return nil, err
	}
	if cfg.MinCores < 1 || cfg.MaxCores < cfg.MinCores || cfg.MaxCores > cfg.Pool.Len() {
		return nil, fmt.Errorf("policy: throttler core bounds [%d, %d] over %d cores",
			cfg.MinCores, cfg.MaxCores, cfg.Pool.Len())
	}
	if cfg.SamplePeriod <= 0 {
		return nil, fmt.Errorf("policy: SamplePeriod = %v", cfg.SamplePeriod)
	}
	if cfg.DegradeAfter < 0 || cfg.RecoverAfter < 0 {
		return nil, fmt.Errorf("policy: throttler degrade thresholds K=%d J=%d",
			cfg.DegradeAfter, cfg.RecoverAfter)
	}
	t := &Throttler{
		n:      n,
		cfg:    cfg,
		cur:    cfg.MaxCores,
		deg:    newDegradeState("throttler", cfg.DegradeAfter, cfg.RecoverAfter),
		bounds: cfg.Watermarks.sanityBounds(),
	}
	if err := n.Cgroups().SetCPUs(cfg.Group, cfg.Pool.Take(t.cur)); err != nil {
		return nil, err
	}
	return t, nil
}

// Cores returns the currently granted core count.
func (t *Throttler) Cores() int { return t.cur }

// Degraded reports whether the controller is in fail-safe mode.
func (t *Throttler) Degraded() bool { return t.deg.Guard.Degraded() }

// History returns a copy of the per-period decision trace.
func (t *Throttler) History() []ThrottlerDecision {
	return append([]ThrottlerDecision(nil), t.history...)
}

// Control implements sim.Controller, hardened against a faulty signal
// path: samples are sanitized before use, enforcement failures are scored
// instead of crashing, and after K consecutive faulted periods the
// controller pins the minimum core grant until J clean periods pass.
func (t *Throttler) Control(now float64) {
	if t.n.Faults().Stall(now, "throttler") {
		t.fault(now)
		return
	}
	s := t.n.Monitor().Window()
	if s.Elapsed == 0 {
		return
	}
	s, dropped := t.n.Faults().PerturbSample(now, "throttler", s)
	if dropped {
		t.fault(now)
		return
	}
	if err := s.Check(t.bounds); err != nil {
		t.deg.reject(t.n, now, err)
		t.fault(now)
		return
	}
	if t.deg.Guard.Degraded() {
		if err := t.enforceFailSafe(now); err != nil {
			t.deg.actuateError(t.n, now, err)
			t.deg.Guard.Fault()
			return
		}
		t.deg.clean(t.n, now)
		return
	}
	bw := s.SocketBW[t.cfg.Socket]
	lat := s.SocketLatency[t.cfg.Socket]
	w := t.cfg.Watermarks
	switch {
	case bw > w.SocketBWHigh || lat > w.LatencyHigh:
		if t.cur > t.cfg.MinCores {
			t.cur--
		}
	case bw < w.SocketBWLow && lat < w.LatencyLow:
		if t.cur < t.cfg.MaxCores {
			t.cur++
		}
	}
	if err := t.enforce(now); err != nil {
		t.deg.actuateError(t.n, now, err)
		t.fault(now)
		return
	}
	t.deg.clean(t.n, now)
	t.history = append(t.history, ThrottlerDecision{
		Time: now, SocketBW: bw, Latency: lat, Cores: t.cur,
	})
	if rec := t.n.Events(); rec != nil {
		rec.Emit(now, events.ThrottlerActuate, "throttler", map[string]any{
			"socket_bw": bw, "latency": lat, "cores": t.cur,
		})
	}
}

// enforce pushes the current grant through the (possibly fault-gated)
// cgroup interface.
func (t *Throttler) enforce(now float64) error {
	return t.n.Faults().SetCPUs(now, t.n.Cgroups(), t.cfg.Group, t.cfg.Pool.Take(t.cur))
}

// enforceFailSafe pins the minimum core grant — the conservative stance
// while the feedback loop cannot be trusted.
func (t *Throttler) enforceFailSafe(now float64) error {
	t.cur = t.cfg.MinCores
	return t.enforce(now)
}

// fault scores one faulted period, entering fail-safe after K in a row.
func (t *Throttler) fault(now float64) {
	if !t.deg.fault(t.n, now) {
		return
	}
	if err := t.enforceFailSafe(now); err != nil {
		t.deg.actuateError(t.n, now, err)
	}
}
