package policy

import (
	"kelp/internal/core"
	"kelp/internal/events"
	"kelp/internal/node"
	"kelp/internal/perfmon"
)

// degradeState bundles the degradation watchdog with its event emission
// for the baseline controllers (CoreThrottle, MBA, SLO). The Kelp runtime
// in internal/core carries the same machinery inline; this keeps the three
// policy controllers from each reimplementing it. Its fields are exported
// because it travels, gob-encoded as is, inside ThrottlerState and MBAState.
type degradeState struct {
	Name  string
	Guard core.Guard
}

func newDegradeState(name string, k, j int) degradeState {
	return degradeState{Name: name, Guard: core.NewGuard(k, j)}
}

// fault scores one faulted period and reports whether the controller just
// entered fail-safe mode (emitting degrade.enter when it did). The caller
// applies its own fail-safe configuration on a true return.
func (d *degradeState) fault(n *node.Node, now float64) (entered bool) {
	if !d.Guard.Fault() {
		return false
	}
	if rec := n.Events(); rec.Enabled() {
		rec.Emit(now, events.DegradeEnter, d.Name, map[string]any{
			"controller":         d.Name,
			"consecutive_faults": d.Guard.EnterAfter,
		})
	}
	return true
}

// clean scores one clean period, emitting degrade.exit when the controller
// just recovered.
func (d *degradeState) clean(n *node.Node, now float64) (exited bool) {
	if !d.Guard.Clean() {
		return false
	}
	if rec := n.Events(); rec.Enabled() {
		rec.Emit(now, events.DegradeExit, d.Name, map[string]any{
			"controller":    d.Name,
			"clean_periods": d.Guard.ExitAfter,
		})
	}
	return true
}

// reject emits sensor.reject for a sample the sanitizer refused.
func (d *degradeState) reject(n *node.Node, now float64, err error) {
	if rec := n.Events(); rec.Enabled() {
		rec.Emit(now, events.SensorReject, d.Name, map[string]any{
			"reason": err.Error(),
		})
	}
}

// actuateError emits actuate.error for an enforcement write that failed
// after read-back verification and retry.
func (d *degradeState) actuateError(n *node.Node, now float64, err error) {
	if rec := n.Events(); rec.Enabled() {
		rec.Emit(now, events.ActuateError, d.Name, map[string]any{
			"error": err.Error(),
		})
	}
}

// ThrottlerState is a snapshot of a Throttler's control state, used by the
// experiments layer's warm-started sweep cells and, gob-encoded as is, by
// the durability layer's session snapshots.
type ThrottlerState struct {
	Cur     int
	Deg     degradeState
	History []ThrottlerDecision
}

// Snapshot captures the throttler's control state.
func (t *Throttler) Snapshot() ThrottlerState {
	return ThrottlerState{
		Cur:     t.cur,
		Deg:     t.deg,
		History: append([]ThrottlerDecision(nil), t.history...),
	}
}

// Restore installs a snapshot taken by Snapshot on a throttler built from
// the same configuration. It does not actuate: the node snapshot restores
// the cgroup state the throttler had enforced.
func (t *Throttler) Restore(st ThrottlerState) {
	t.cur = st.Cur
	t.deg = st.Deg
	t.history = append(t.history[:0], st.History...)
}

// MBAState is a snapshot of an MBAController's control state.
type MBAState struct {
	Cur     int
	Deg     degradeState
	History []MBADecision
}

// Snapshot captures the MBA controller's control state.
func (c *MBAController) Snapshot() MBAState {
	return MBAState{
		Cur:     c.cur,
		Deg:     c.deg,
		History: append([]MBADecision(nil), c.history...),
	}
}

// Restore installs a snapshot taken by Snapshot on a controller built from
// the same configuration.
func (c *MBAController) Restore(st MBAState) {
	c.cur = st.Cur
	c.deg = st.Deg
	c.history = append(c.history[:0], st.History...)
}

// sanityBounds derives sample plausibility limits from the throttler-style
// watermarks, mirroring core.Watermarks.SanityBounds.
func (w ThrottlerWatermarks) sanityBounds() perfmon.Bounds {
	return perfmon.Bounds{
		MaxBW:      16 * w.SocketBWHigh,
		MaxLatency: 64 * w.LatencyHigh,
	}
}
