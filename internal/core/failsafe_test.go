package core

import (
	"reflect"
	"testing"

	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/node"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// aggressedRuntime builds a runtime on testNode with a flight recorder
// attached, a DRAM-heavy aggressor in the low group and the runtime
// registered as the node's controller.
func aggressedRuntime(t *testing.T) (*node.Node, *Runtime, *events.Recorder) {
	t.Helper()
	n := testNode(t)
	rec := events.MustNew(4096)
	n.SetEvents(rec)
	cfg := testConfig(n)
	r, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := workload.NewDRAMAggressor(workload.LevelHigh)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddTask(agg, "low"); err != nil {
		t.Fatal(err)
	}
	if err := n.Engine().AddController("kelp", cfg.SamplePeriod, r); err != nil {
		t.Fatal(err)
	}
	return n, r, rec
}

// countEvents counts the recorder's events of type typ.
func countEvents(rec *events.Recorder, typ events.Type) int {
	c := 0
	for _, e := range rec.Events() {
		if e.Type == typ {
			c++
		}
	}
	return c
}

// checkFailSafe fails unless the runtime holds its fail-safe configuration
// and has enforced it on the low and backfill groups.
func checkFailSafe(t *testing.T, n *node.Node, r *Runtime) {
	t.Helper()
	cfg := r.Config()
	if r.LowCores() != cfg.MinLowCores || r.LowPrefetchers() != 0 || r.BackfillCores() != cfg.MinBackfillCores {
		t.Errorf("actuators = %d low cores, %d prefetchers, %d backfill; want the fail-safe %d, 0, %d",
			r.LowCores(), r.LowPrefetchers(), r.BackfillCores(), cfg.MinLowCores, cfg.MinBackfillCores)
	}
	low, _ := n.Cgroups().Group(cfg.LowGroup)
	if got := low.CPUs().Len(); got != cfg.MinLowCores {
		t.Errorf("low group has %d cores, want %d", got, cfg.MinLowCores)
	}
	if on, _ := n.Cgroups().PrefetchersOn(cfg.LowGroup); on != 0 {
		t.Errorf("low group has %d prefetchers on, want 0", on)
	}
}

// A runtime whose every period stalls enters fail-safe after K periods,
// emitting degrade.enter once, and leaves it after J clean periods once the
// stalls stop, emitting degrade.exit once.
func TestRuntimeFailsSafeWhileStalled(t *testing.T) {
	n, r, rec := aggressedRuntime(t)
	n.SetFaults(faults.MustInjector(faults.Spec{Seed: 1, Stall: 1}))
	n.Run(1 * sim.Second)
	if !r.Degraded() {
		t.Fatal("runtime not degraded after ten stalled periods")
	}
	checkFailSafe(t, n, r)
	if got := countEvents(rec, events.DegradeEnter); got != 1 {
		t.Errorf("%d degrade.enter events, want 1", got)
	}
	if len(r.History()) != 0 {
		t.Errorf("stalled periods recorded %d decisions", len(r.History()))
	}

	n.SetFaults(nil)
	n.Run(1 * sim.Second)
	if r.Degraded() {
		t.Fatal("runtime still degraded after ten clean periods")
	}
	if got := countEvents(rec, events.DegradeExit); got != 1 {
		t.Errorf("%d degrade.exit events, want 1", got)
	}
	if len(r.History()) == 0 {
		t.Error("closed-loop control did not resume after recovery")
	}
}

// A runtime whose every actuation write fails scores each failure as a
// faulted period, reports it as actuate.error, and enters fail-safe mode
// without crashing.
func TestRuntimeFailsSafeOnActuationErrors(t *testing.T) {
	n, r, rec := aggressedRuntime(t)
	n.SetFaults(faults.MustInjector(faults.Spec{Seed: 1, ActFail: 1}))
	n.Run(1 * sim.Second)
	if !r.Degraded() {
		t.Fatal("runtime not degraded after ten failed actuations")
	}
	if got := countEvents(rec, events.ActuateError); got == 0 {
		t.Error("no actuate.error event for the failed writes")
	}
	if got := countEvents(rec, events.DegradeEnter); got != 1 {
		t.Errorf("%d degrade.enter events, want 1", got)
	}
	if len(r.History()) != 0 {
		t.Errorf("failed periods recorded %d decisions", len(r.History()))
	}
}

// A snapshot restored onto a runtime built afresh from the same
// configuration reproduces the source's actuators, guard and history.
func TestRuntimeSnapshotRestore(t *testing.T) {
	n, r, _ := aggressedRuntime(t)
	n.Run(2 * sim.Second)
	st := r.Snapshot()
	if len(st.History) == 0 {
		t.Fatal("no decisions recorded; the check would be vacuous")
	}
	_, fresh, _ := aggressedRuntime(t)
	fresh.Restore(st)
	if got := fresh.Snapshot(); !reflect.DeepEqual(got, st) {
		t.Errorf("restored snapshot %+v, want %+v", got, st)
	}
	if fresh.LowCores() != r.LowCores() || fresh.LowPrefetchers() != r.LowPrefetchers() ||
		fresh.BackfillCores() != r.BackfillCores() {
		t.Errorf("restored actuators %d/%d/%d, source %d/%d/%d",
			fresh.LowCores(), fresh.LowPrefetchers(), fresh.BackfillCores(),
			r.LowCores(), r.LowPrefetchers(), r.BackfillCores())
	}
	// The restored history is the runtime's own: editing the snapshot
	// afterwards does not reach it.
	want := st.History[0]
	st.History[0].LowCores = -1
	if got := fresh.History()[0]; got != want {
		t.Errorf("restored history aliases the snapshot: first decision %+v, want %+v", got, want)
	}
}
