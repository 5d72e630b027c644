package core

import (
	"kelp/internal/events"
	"kelp/internal/node"
	"kelp/internal/perfmon"
)

// Period is the hardened control period every controller runs — the Kelp
// runtime, CoreThrottle, the MBA and SLO controllers: one feedback loop
// that reads its signal, decides, and enforces through the (possibly
// fault-gated) cgroup interface, scored by the degradation watchdog. Each
// controller supplies only its Plant; the order of the steps, the watchdog
// bookkeeping and the fault events live here once.
type Period struct {
	n *node.Node
	// name labels the controller in the injector's fault draws and in
	// every event the period emits ("kelp", "throttler", "mba", "slo").
	name string
	// Guard is the controller's watchdog, which its snapshots carry.
	Guard Guard
	// window is the PMU read SenseWindow fills every period, reused so
	// that a period's read does not allocate. The sample SenseWindow
	// returns aliases it until the next period's read.
	window perfmon.Sample
}

// NewPeriod returns the named controller's control period on n; k or j <= 0
// select the watchdog defaults.
func NewPeriod(n *node.Node, name string, k, j int) Period {
	return Period{n: n, name: name, Guard: NewGuard(k, j)}
}

// Sensed classifies one period's feedback reading.
type Sensed int

// Sense outcomes.
const (
	// SenseOK is a usable reading: the period goes on to act.
	SenseOK Sensed = iota
	// SenseEmpty means there is nothing to react to (an empty PMU window at
	// startup, no completions in the window). The period ends unscored.
	SenseEmpty
	// SenseDropped means the reading was lost. The period is faulted.
	SenseDropped
	// SenseRejected means the reading failed its sanity check. The period
	// emits sensor.reject with the check's error and is faulted.
	SenseRejected
)

// Plant is one controller's side of a control period.
type Plant interface {
	// Sense reads the period's feedback signal and keeps it for Act. The
	// error is the reason of a SenseRejected reading.
	Sense(now float64) (Sensed, error)
	// Act decides from the sensed reading and enforces the result.
	Act(now float64) error
	// FailSafe applies the conservative static configuration the
	// controller holds while its feedback loop cannot be trusted.
	FailSafe(now float64) error
	// Record logs one clean closed-loop period.
	Record(now float64)
}

// Run executes one control period. A stalled period, a dropped or
// rejected reading and a failed actuation are faulted; after K faulted
// periods in a row the controller enters fail-safe. While degraded the
// fail-safe configuration is re-asserted every period, since a stuck
// actuator may have swallowed the previous attempt, and after J clean
// periods in a row closed-loop control resumes from the fail-safe values.
func (p *Period) Run(now float64, c Plant) {
	if p.n.Faults().Stall(now, p.name) {
		p.fault(now, c)
		return
	}
	switch st, err := c.Sense(now); st {
	case SenseEmpty:
		return
	case SenseDropped:
		p.fault(now, c)
		return
	case SenseRejected:
		if rec := p.n.Events(); rec.Enabled() {
			rec.Emit(now, events.SensorReject, p.name, map[string]any{
				"reason": err.Error(),
			})
		}
		p.fault(now, c)
		return
	}
	if p.Guard.Degraded() {
		if err := c.FailSafe(now); err != nil {
			p.actuateError(now, err)
			p.Guard.Fault()
			return
		}
		p.clean(now)
		return
	}
	if err := c.Act(now); err != nil {
		// The controller's groups were validated at construction, so a
		// failure here is the actuation path itself misbehaving: score it
		// and hold the last applied configuration rather than crash.
		p.actuateError(now, err)
		p.fault(now, c)
		return
	}
	p.clean(now)
	c.Record(now)
}

// SenseWindow reads the node's PMU window for a Plant's Sense: the window
// passes through the fault injector and then the sanity check against b.
// The returned sample's slices belong to the period and are overwritten by
// the next period's read, so a Plant reads them within its period only.
func (p *Period) SenseWindow(now float64, b perfmon.Bounds) (perfmon.Sample, Sensed, error) {
	p.n.Monitor().WindowInto(&p.window)
	s := p.window
	if s.Elapsed == 0 {
		return s, SenseEmpty, nil
	}
	s, dropped := p.n.Faults().PerturbSample(now, p.name, s)
	if dropped {
		return s, SenseDropped, nil
	}
	if err := s.Check(b); err != nil {
		return s, SenseRejected, err
	}
	return s, SenseOK, nil
}

// fault scores one faulted period; on the K-th in a row it emits
// degrade.enter and applies the fail-safe configuration, best effort: a
// stuck actuator may refuse even the fail-safe write, which Run re-asserts
// every degraded period.
func (p *Period) fault(now float64, c Plant) {
	if !p.Guard.Fault() {
		return
	}
	if rec := p.n.Events(); rec.Enabled() {
		rec.Emit(now, events.DegradeEnter, p.name, map[string]any{
			"controller":         p.name,
			"consecutive_faults": p.Guard.EnterAfter,
		})
	}
	if err := c.FailSafe(now); err != nil {
		p.actuateError(now, err)
	}
}

// clean scores one clean period, emitting degrade.exit on the J-th in a row
// while degraded.
func (p *Period) clean(now float64) {
	if !p.Guard.Clean() {
		return
	}
	if rec := p.n.Events(); rec.Enabled() {
		rec.Emit(now, events.DegradeExit, p.name, map[string]any{
			"controller":    p.name,
			"clean_periods": p.Guard.ExitAfter,
		})
	}
}

// actuateError emits actuate.error for an enforcement write that failed
// after read-back verification and retry.
func (p *Period) actuateError(now float64, err error) {
	if rec := p.n.Events(); rec.Enabled() {
		rec.Emit(now, events.ActuateError, p.name, map[string]any{
			"error": err.Error(),
		})
	}
}
