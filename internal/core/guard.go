package core

// Degradation watchdog defaults: enter fail-safe after K consecutive
// faulted control periods, leave after J consecutive clean ones. K is
// small because every faulted period is a period the QoS machinery flew
// blind; J is larger so a flapping fault cannot bounce the controller in
// and out of fail-safe.
const (
	DefaultDegradeAfter = 3
	DefaultRecoverAfter = 5
)

// Guard is the degradation watchdog shared by every hardened controller
// (the Kelp runtime, CoreThrottle, the MBA and SLO controllers). Each
// control period is scored as faulted (sample dropped or rejected, period
// stalled, actuation failed) or clean; after EnterAfter consecutive
// faulted periods the controller must stop trusting its feedback loop and
// fall back to a conservative static configuration, and after ExitAfter
// consecutive clean periods it may resume closed-loop control.
//
// The guard is a pure state machine: it neither emits events nor touches
// actuators. Controllers act on the transition results of Fault and Clean.
type Guard struct {
	// EnterAfter (K) and ExitAfter (J); zero selects the defaults.
	EnterAfter, ExitAfter int

	faulted  int
	clean    int
	degraded bool
	entries  int
}

// NewGuard returns a watchdog; k or j <= 0 select the defaults.
func NewGuard(k, j int) Guard {
	if k <= 0 {
		k = DefaultDegradeAfter
	}
	if j <= 0 {
		j = DefaultRecoverAfter
	}
	return Guard{EnterAfter: k, ExitAfter: j}
}

// Fault scores one faulted control period and reports whether the guard
// just transitioned into fail-safe mode. While already degraded it only
// resets the clean-period count.
func (g *Guard) Fault() (entered bool) {
	g.clean = 0
	if g.degraded {
		return false
	}
	g.faulted++
	if g.faulted >= g.EnterAfter {
		g.degraded = true
		g.entries++
		return true
	}
	return false
}

// Clean scores one clean control period and reports whether the guard
// just transitioned out of fail-safe mode.
func (g *Guard) Clean() (exited bool) {
	g.faulted = 0
	if !g.degraded {
		return false
	}
	g.clean++
	if g.clean >= g.ExitAfter {
		g.degraded = false
		g.clean = 0
		return true
	}
	return false
}

// Degraded reports whether the controller is in fail-safe mode.
func (g *Guard) Degraded() bool { return g.degraded }
