package policy

import (
	"reflect"
	"testing"

	"kelp/internal/sim"
	"kelp/internal/workload"
)

// applyUnderAggression applies k to a fresh node running a DRAM-heavy
// aggressor in the low group and runs it for dur.
func applyUnderAggression(t *testing.T, k Kind, dur sim.Time) *Applied {
	t.Helper()
	n := newNode(t)
	a, err := Apply(n, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := workload.NewDRAMAggressor(workload.LevelHigh)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddTask(agg, a.Low); err != nil {
		t.Fatal(err)
	}
	n.Run(dur)
	return a
}

// State carries exactly the controller Apply installed, with the decisions
// it has made, and restores onto the same policy applied afresh so that the
// fresh controller reports the same state.
func TestStateRestoresController(t *testing.T) {
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			a := applyUnderAggression(t, k, 2*sim.Second)
			st := a.State()
			if got, want := st.Runtime != nil, a.Runtime != nil; got != want {
				t.Errorf("Runtime state present = %v, runtime installed = %v", got, want)
			}
			if got, want := st.Throttler != nil, a.Throttler != nil; got != want {
				t.Errorf("Throttler state present = %v, throttler installed = %v", got, want)
			}
			if got, want := st.MBA != nil, a.MBA != nil; got != want {
				t.Errorf("MBA state present = %v, MBA controller installed = %v", got, want)
			}
			switch {
			case st.Runtime != nil && len(st.Runtime.History) == 0,
				st.Throttler != nil && len(st.Throttler.History) == 0,
				st.MBA != nil && len(st.MBA.History) == 0:
				t.Fatal("the controller made no decision; the check would be vacuous")
			}
			fresh := applyUnderAggression(t, k, 0)
			if err := fresh.Restore(st); err != nil {
				t.Fatal(err)
			}
			if got := fresh.State(); !reflect.DeepEqual(got, st) {
				t.Errorf("restored state %+v, want %+v", got, st)
			}
			if fresh.Degraded() != a.Degraded() {
				t.Errorf("restored Degraded = %v, source %v", fresh.Degraded(), a.Degraded())
			}
		})
	}
}

// A state whose controller set differs from the applied policy's is
// refused, and the refusal changes nothing.
func TestRestoreRejectsOtherController(t *testing.T) {
	ct := applyUnderAggression(t, CoreThrottle, 1*sim.Second).State()
	mba := applyUnderAggression(t, MBAThrottle, 1*sim.Second).State()
	for _, tc := range []struct {
		kind Kind
		st   State
	}{
		{Kelp, ct},
		{CoreThrottle, mba},
		{MBAThrottle, State{}},
		{Baseline, ct},
	} {
		a := applyUnderAggression(t, tc.kind, 0)
		before := a.State()
		if err := a.Restore(tc.st); err == nil {
			t.Errorf("%v accepted a state for another controller", tc.kind)
		}
		if got := a.State(); !reflect.DeepEqual(got, before) {
			t.Errorf("%v: refused restore changed the state to %+v", tc.kind, got)
		}
	}
}

// Before any policy is applied there is no controller: a nil Applied has an
// empty state, accepts only an empty one, and is never degraded.
func TestNilAppliedState(t *testing.T) {
	var a *Applied
	if st := a.State(); !reflect.DeepEqual(st, State{}) {
		t.Errorf("nil State = %+v", st)
	}
	if err := a.Restore(State{}); err != nil {
		t.Errorf("nil Restore of an empty state: %v", err)
	}
	ct := applyUnderAggression(t, CoreThrottle, 1*sim.Second).State()
	if err := a.Restore(ct); err == nil {
		t.Error("nil Restore accepted a throttler state")
	}
	if a.Degraded() {
		t.Error("nil Applied reports degraded")
	}
}
