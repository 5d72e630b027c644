// Package sim provides a deterministic fixed-timestep simulation engine.
//
// The engine advances simulated time in fixed steps and, on every step,
// invokes each registered Stepper in registration order. Controllers run on
// their own sampling periods, before the steppers of the tick on which they
// fire. A lone stepper that implements BatchStepper is handed every tick up
// to the next controller firing in one call, with identical results. All
// randomness flows through named, seeded streams so that a run is
// reproducible from a single root seed.
//
// The engine is intentionally unaware of what is being simulated: the node
// package wires memory-system resolution and task progress into a single
// Stepper pipeline, and runtime policies (Kelp, CoreThrottle, ...) register
// as controllers.
package sim

import "fmt"

// Time is a point in simulated time, in seconds.
type Time = float64

// Duration is a span of simulated time, in seconds.
type Duration = float64

// Common durations, in seconds.
const (
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1.0
)

// Stepper advances a simulated component by one time step.
type Stepper interface {
	// Step advances the component from time now to now+dt.
	Step(now Time, dt Duration)
}

// BatchStepper is a Stepper that can advance a run of ticks in one call.
// Engine.Run hands it the bounds of the run instead of a tick count.
type BatchStepper interface {
	Stepper
	// StepN advances the component through its tick at now and then,
	// advancing its clock by repeated now += dt, through every following
	// tick it can take exactly as that many Step calls would, stopping
	// before the first tick t where t < deadline-1e-12 && t+1e-12 < due
	// fails: a tick past the run's end, or one on which a controller
	// fires. due is the earliest controller fire time (+Inf with none).
	// It returns the number of ticks advanced, at least 1.
	StepN(now Time, dt Duration, deadline, due Time) (ticks int)
}

// StepFunc adapts a function to the Stepper interface.
type StepFunc func(now Time, dt Duration)

// Step calls f(now, dt).
func (f StepFunc) Step(now Time, dt Duration) { f(now, dt) }

// Controller is a periodic decision maker (for example a QoS runtime). It is
// invoked at its configured period, before the steppers of the tick on which
// it fires.
type Controller interface {
	// Control observes the system and applies actuations. now is the
	// simulated time at which the controller fires.
	Control(now Time)
}

// ControlFunc adapts a function to the Controller interface.
type ControlFunc func(now Time)

// Control calls f(now).
func (f ControlFunc) Control(now Time) { f(now) }

// FormatTime renders a simulated time compactly for traces and logs.
func FormatTime(t Time) string {
	switch {
	case t < 1e-3:
		return fmt.Sprintf("%.1fµs", t*1e6)
	case t < 1.0:
		return fmt.Sprintf("%.3fms", t*1e3)
	default:
		return fmt.Sprintf("%.3fs", t)
	}
}
