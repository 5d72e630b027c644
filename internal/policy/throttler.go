package policy

import (
	"fmt"

	"kelp/internal/core"
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

// socketLoop is the socket-scope watermark feedback that CoreThrottle and
// the MBA controller share: one actuator level in [lo, hi], lowered by step
// when socket bandwidth or latency passes its high watermark and raised
// when both sit below their low ones. Its fail-safe level is lo. It is the
// two controllers' core.Plant; act supplies what differs between them.
type socketLoop struct {
	n            *node.Node
	period       core.Period
	bounds       perfmon.Bounds
	socket       int
	w            ThrottlerWatermarks
	lo, hi, step int
	cur          int
	act          actuator

	// bw and lat are the period's sensed socket bandwidth and latency.
	bw, lat float64
}

// actuator is one socketLoop controller's actuator: how a level is
// enforced and how a closed-loop period is recorded.
type actuator interface {
	set(now float64, level int) error
	record(now, bw, lat float64, level int)
}

// newSocketLoop returns the named controller's loop, starting at hi;
// k and j are its watchdog thresholds.
func newSocketLoop(n *node.Node, name string, socket int, w ThrottlerWatermarks, lo, hi, step, k, j int, act actuator) socketLoop {
	return socketLoop{
		n:      n,
		period: core.NewPeriod(n, name, k, j),
		bounds: core.SampleBounds(w.SocketBWHigh, w.LatencyHigh),
		socket: socket,
		w:      w,
		lo:     lo,
		hi:     hi,
		step:   step,
		cur:    hi,
		act:    act,
	}
}

// Sense implements core.Plant.
func (l *socketLoop) Sense(now float64) (core.Sensed, error) {
	s, st, err := l.period.SenseWindow(now, l.bounds)
	if st == core.SenseOK {
		l.bw, l.lat = s.SocketBW[l.socket], s.SocketLatency[l.socket]
	}
	return st, err
}

// Act implements core.Plant: one watermark step.
func (l *socketLoop) Act(now float64) error {
	switch {
	case l.bw > l.w.SocketBWHigh || l.lat > l.w.LatencyHigh:
		if l.cur > l.lo {
			l.cur -= l.step
		}
	case l.bw < l.w.SocketBWLow && l.lat < l.w.LatencyLow:
		if l.cur < l.hi {
			l.cur += l.step
		}
	}
	return l.act.set(now, l.cur)
}

// FailSafe implements core.Plant: pin the lowest level.
func (l *socketLoop) FailSafe(now float64) error {
	l.cur = l.lo
	return l.act.set(now, l.cur)
}

// Record implements core.Plant.
func (l *socketLoop) Record(now float64) { l.act.record(now, l.bw, l.lat, l.cur) }

// Throttler is the CoreThrottle runtime: a feedback loop that narrows or
// widens the low-priority tasks' CPU mask (paper §V-A, configuration CT,
// mimicking [28][29][30]).
type Throttler struct {
	cfg     ThrottlerConfig
	loop    socketLoop
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
	t := &Throttler{cfg: cfg}
	t.loop = newSocketLoop(n, "throttler", cfg.Socket, cfg.Watermarks,
		cfg.MinCores, cfg.MaxCores, 1, cfg.DegradeAfter, cfg.RecoverAfter, t)
	if err := n.Cgroups().SetCPUs(cfg.Group, cfg.Pool.Take(t.loop.cur)); err != nil {
		return nil, err
	}
	return t, nil
}

// Cores returns the currently granted core count.
func (t *Throttler) Cores() int { return t.loop.cur }

// Degraded reports whether the controller is in fail-safe mode.
func (t *Throttler) Degraded() bool { return t.loop.period.Guard.Degraded() }

// History returns a copy of the per-period decision trace.
func (t *Throttler) History() []ThrottlerDecision {
	return append([]ThrottlerDecision(nil), t.history...)
}

// Control implements sim.Controller, hardened against a faulty signal
// path: samples are sanitized before use, enforcement failures are scored
// instead of crashing, and after K consecutive faulted periods the
// controller pins the minimum core grant until J clean periods pass.
func (t *Throttler) Control(now float64) { t.loop.period.Run(now, &t.loop) }

// set pushes a core grant through the (possibly fault-gated) cgroup
// interface.
func (t *Throttler) set(now float64, cores int) error {
	n := t.loop.n
	return n.Faults().SetCPUs(now, n.Cgroups(), t.cfg.Group, t.cfg.Pool.Prefix(cores))
}

func (t *Throttler) record(now, bw, lat float64, cores int) {
	t.history = append(t.history, ThrottlerDecision{
		Time: now, SocketBW: bw, Latency: lat, Cores: cores,
	})
	if rec := t.loop.n.Events(); rec != nil {
		rec.Emit(now, events.ThrottlerActuate, "throttler", map[string]any{
			"socket_bw": bw, "latency": lat, "cores": cores,
		})
	}
}
