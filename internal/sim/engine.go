package sim

import (
	"errors"
	"fmt"
	"math"
)

// DefaultStep is the default simulation time step.
const DefaultStep Duration = 100 * Microsecond

// Engine drives a fixed-timestep simulation.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	dt      Duration
	stepper Stepper
	ctrls   []*scheduledController
	rng     *RNG
	steps   uint64
	// due is the earliest next fire time of any controller (+Inf with
	// none), so a tick with nothing due skips the controller scan.
	due Time
}

type scheduledController struct {
	ctrl   Controller
	period Duration
	next   Time
	name   string
}

// NewEngine returns an engine that advances time in steps of dt seconds,
// with all randomness derived from seed.
func NewEngine(dt Duration, seed int64) (*Engine, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("sim: invalid step %v", dt)
	}
	return &Engine{dt: dt, rng: NewRNG(seed), due: math.Inf(1)}, nil
}

// MustEngine is like NewEngine but panics on invalid arguments. It is meant
// for tests and examples with constant parameters.
func MustEngine(dt Duration, seed int64) *Engine {
	e, err := NewEngine(dt, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Step returns the engine's time step.
func (e *Engine) Step() Duration { return e.dt }

// RNG returns the engine's random stream source. Derive per-component
// streams with RNG.Stream to keep runs reproducible under reordering.
func (e *Engine) RNG() *RNG { return e.rng }

// SetStepper installs the component the engine advances, replacing any
// previous one. With none (or nil), ticks only advance the clock and fire
// controllers.
func (e *Engine) SetStepper(s Stepper) { e.stepper = s }

// AddController registers a periodic controller with the given sampling
// period. The controller first fires at time period (not at zero), matching a
// runtime that needs one full window of measurements before acting.
func (e *Engine) AddController(name string, period Duration, c Controller) error {
	if c == nil {
		return errors.New("sim: nil controller")
	}
	if period <= 0 || math.IsNaN(period) {
		return fmt.Errorf("sim: controller %q: invalid period %v", name, period)
	}
	e.ctrls = append(e.ctrls, &scheduledController{ctrl: c, period: period, next: period, name: name})
	e.schedule()
	return nil
}

// Tick advances the simulation by exactly one step: due controllers fire,
// then the stepper advances by dt.
func (e *Engine) Tick() { e.advance(e.now) }

// advance fires the controllers due now, then hands the stepper the run of
// ticks from now up to deadline or the next controller due time, and moves
// the clock past the ticks it took. A deadline of now bounds the run to one
// tick.
func (e *Engine) advance(deadline Time) {
	if e.now+1e-12 >= e.due {
		e.fire()
	}
	ticks := 1
	if e.stepper != nil {
		ticks = e.stepper.StepN(e.now, e.dt, deadline, e.due)
		if ticks < 1 {
			panic(fmt.Sprintf("sim: StepN advanced %d ticks", ticks))
		}
	}
	e.steps += uint64(ticks)
	// AddN, not now + ticks*dt: the clock must land exactly where that
	// many Ticks would put it.
	e.now = AddN(e.now, e.dt, ticks)
}

// fire runs every controller due at the current tick, then reschedules.
func (e *Engine) fire() {
	for _, sc := range e.ctrls {
		// A controller can be overdue by several periods if its period is
		// shorter than dt; fire once per tick at most, like a real sampler
		// that can't run faster than its host loop.
		if e.now+1e-12 >= sc.next {
			sc.ctrl.Control(e.now)
			for sc.next <= e.now+1e-12 {
				sc.next += sc.period
			}
		}
	}
	e.schedule()
}

// schedule recomputes due, the earliest time any controller fires next.
func (e *Engine) schedule() {
	e.due = math.Inf(1)
	for _, sc := range e.ctrls {
		e.due = min(e.due, sc.next)
	}
}

// EngineState is a snapshot of the engine's mutable scheduling state: the
// clock, the tick count, and each registered controller's next fire time in
// registration order. It holds no random state: the engine's RNG only
// derives streams, and each stream's owner captures that stream's position
// in its own snapshot (Stream.Pos).
type EngineState struct {
	Now   Time
	Steps uint64
	Next  []Time
}

// State snapshots the engine's scheduling state.
func (e *Engine) State() EngineState {
	st := EngineState{Now: e.now, Steps: e.steps, Next: make([]Time, len(e.ctrls))}
	for i, sc := range e.ctrls {
		st.Next[i] = sc.next
	}
	return st
}

// RestoreState installs a snapshot taken by State. The engine must have the
// same controllers registered, in the same order, as when the snapshot was
// taken (warm-start rebuilds the cell deterministically first).
func (e *Engine) RestoreState(st EngineState) error {
	if len(st.Next) != len(e.ctrls) {
		return fmt.Errorf("sim: snapshot has %d controllers, engine has %d", len(st.Next), len(e.ctrls))
	}
	e.now = st.Now
	e.steps = st.Steps
	for i, sc := range e.ctrls {
		sc.next = st.Next[i]
	}
	e.schedule()
	return nil
}

// Run advances the simulation until at least d seconds of simulated time have
// elapsed from the current time. It panics on a negative or non-finite d.
func (e *Engine) Run(d Duration) {
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("sim: Run(%v)", d))
	}
	e.RunUntil(e.now + d)
}

// RunUntil advances the simulation until the clock reaches deadline
// (within 1e-12 s); a deadline already reached is a no-op. It panics on a
// non-finite deadline.
//
// Each call to the stepper covers every tick up to the next controller due
// time or the deadline, of which the stepper takes as many as it can
// advance exactly; the ticks, and so the results, are those of calling
// Tick until the deadline.
func (e *Engine) RunUntil(deadline Time) {
	if math.IsNaN(deadline) || math.IsInf(deadline, 0) {
		panic(fmt.Sprintf("sim: RunUntil(%v)", deadline))
	}
	for e.now < deadline-1e-12 {
		e.advance(deadline)
	}
}

// RunWhile advances the simulation while cond returns true, up to a hard cap
// of maxTime simulated seconds, which it reaches after the ticks
// RunUntil(now+maxTime) would take. It returns the elapsed simulated time
// and whether the condition ended the run (false means the cap was hit).
// cond observes every tick, so RunWhile always dispatches one Tick at a
// time. It panics on a negative or NaN maxTime.
func (e *Engine) RunWhile(maxTime Duration, cond func() bool) (elapsed Duration, done bool) {
	if maxTime < 0 || math.IsNaN(maxTime) {
		panic(fmt.Sprintf("sim: RunWhile(%v)", maxTime))
	}
	start := e.now
	deadline := e.now + maxTime
	for cond() {
		if e.now >= deadline-1e-12 {
			return e.now - start, false
		}
		e.Tick()
	}
	return e.now - start, true
}
