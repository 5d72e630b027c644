// Package sim provides a deterministic fixed-timestep simulation engine.
//
// The engine advances simulated time in fixed steps and drives one Stepper.
// Run and RunUntil hand it every tick up to the next controller firing or
// the end of the run in one call, and the stepper takes as many of them as
// it can advance exactly; Tick hands it one. Controllers run on their own
// sampling periods, before the stepper's tick on which they fire. All
// randomness flows through named, seeded streams so that a run is
// reproducible from a single root seed.
//
// The engine is intentionally unaware of what is being simulated: the node
// package wires memory-system resolution and task progress into its
// Stepper, and runtime policies (Kelp, CoreThrottle, ...) register as
// controllers.
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

// Stepper advances a simulated component through a run of ticks. The
// engine hands it the bounds of the run instead of a tick count.
type Stepper interface {
	// StepN advances the component through its tick at now and then,
	// advancing its clock by repeated now += dt, through the following
	// ticks it chooses to take, stopping at the latest before the first
	// tick t where t < deadline-1e-12 && t+1e-12 < due fails: a tick past
	// the run's end, or one on which a controller fires. due is the
	// earliest controller fire time (+Inf with none). The results must be
	// those of advancing the same ticks one StepN call each. It returns the
	// number of ticks advanced, at least 1.
	StepN(now Time, dt Duration, deadline, due Time) (ticks int)
}

// Controller is a periodic decision maker (for example a QoS runtime). It is
// invoked at its configured period, before the stepper's tick on which it
// fires.
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
