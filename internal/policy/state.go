package policy

import (
	"fmt"

	"kelp/internal/core"
)

// State is the control state of an applied policy's controller: at most
// one field is set, the one matching the controller Apply installed (none
// under BL and HW-FG). Actuator effects (cpusets, prefetch flags, MBA
// levels) are captured by the node snapshot; this carries only what the
// controller itself remembers. The experiments layer's warm-started sweep
// cells hold it, and the durability layer's session snapshots gob-encode
// it as is.
type State struct {
	Runtime   *core.RuntimeState
	Throttler *ThrottlerState
	MBA       *MBAState
}

// ThrottlerState is a snapshot of a Throttler's control state.
type ThrottlerState struct {
	Cur     int
	Guard   core.Guard
	History []ThrottlerDecision
}

// MBAState is a snapshot of an MBAController's control state.
type MBAState struct {
	Cur     int
	Guard   core.Guard
	History []MBADecision
}

// State captures the applied controller's control state. A nil Applied
// (no policy yet) has none.
func (a *Applied) State() State {
	var st State
	if a == nil {
		return st
	}
	if rt := a.Runtime; rt != nil {
		s := rt.Snapshot()
		st.Runtime = &s
	}
	if th := a.Throttler; th != nil {
		st.Throttler = &ThrottlerState{
			Cur:     th.loop.cur,
			Guard:   th.loop.period.Guard,
			History: append([]ThrottlerDecision(nil), th.history...),
		}
	}
	if mc := a.MBA; mc != nil {
		st.MBA = &MBAState{
			Cur:     mc.loop.cur,
			Guard:   mc.loop.period.Guard,
			History: append([]MBADecision(nil), mc.history...),
		}
	}
	return st
}

// Restore installs a state taken by State on a policy applied with the
// same configuration. It fails, changing nothing, when the state's
// controller set differs from the applied one. It does not actuate: the
// node snapshot restores the cgroup state the controller had enforced.
func (a *Applied) Restore(st State) error {
	var rt, th, mba bool
	if a != nil {
		rt, th, mba = a.Runtime != nil, a.Throttler != nil, a.MBA != nil
	}
	if (st.Runtime != nil) != rt || (st.Throttler != nil) != th || (st.MBA != nil) != mba {
		return fmt.Errorf("policy: controller state does not match the applied policy")
	}
	if st.Runtime != nil {
		a.Runtime.Restore(*st.Runtime)
	}
	if s := st.Throttler; s != nil {
		a.Throttler.loop.cur = s.Cur
		a.Throttler.loop.period.Guard = s.Guard
		a.Throttler.history = append(a.Throttler.history[:0], s.History...)
	}
	if s := st.MBA; s != nil {
		a.MBA.loop.cur = s.Cur
		a.MBA.loop.period.Guard = s.Guard
		a.MBA.history = append(a.MBA.history[:0], s.History...)
	}
	return nil
}
