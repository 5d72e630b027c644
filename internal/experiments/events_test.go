package experiments

import (
	"reflect"
	"testing"

	"kelp/internal/events"
	"kelp/internal/policy"
	"kelp/internal/sim"
)

// freshQuickHarness returns a new serial harness with short windows — fresh
// (unlike quickHarness's shared one) because these tests attach recorders.
func freshQuickHarness() *Harness {
	h := NewHarness()
	h.Parallel = 1
	h.Warmup = 1 * sim.Second
	h.Measure = 1 * sim.Second
	return h
}

// The flight recorder is a passive observer: a harness with one attached
// must produce numerically identical tables to a harness without.
func TestRecorderDoesNotChangeResults(t *testing.T) {
	mix, err := MixFor(Stitch)
	if err != nil {
		t.Fatal(err)
	}

	plain := freshQuickHarness()
	recorded := freshQuickHarness()
	recorded.Events = events.MustNew(events.DefaultCapacity)

	rp, err := plain.RunNormalized(CNN1, mix, policy.Kelp)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := recorded.RunNormalized(CNN1, mix, policy.Kelp)
	if err != nil {
		t.Fatal(err)
	}

	if rp.MLPerf != rr.MLPerf || rp.CPUUnits != rr.CPUUnits {
		t.Errorf("recorder changed results: MLPerf %v vs %v, CPUUnits %v vs %v",
			rp.MLPerf, rr.MLPerf, rp.CPUUnits, rr.CPUUnits)
	}
	if !reflect.DeepEqual(rp.Raw.PerTask, rr.Raw.PerTask) {
		t.Errorf("recorder changed per-task throughputs:\n%v\n%v", rp.Raw.PerTask, rr.Raw.PerTask)
	}

	// And the recorder actually saw the run.
	if recorded.Events.Len() == 0 {
		t.Fatal("recorder attached but captured nothing")
	}
	if got := recorded.Events.Since(0, events.KelpActuate); len(got) == 0 {
		t.Error("no kelp.actuate events from a Kelp-policy run")
	}
}

// The cached standalone baseline is shared across cells and must stay
// unrecorded: only the colocation run feeds the stream.
func TestStandaloneBaselineIsNotRecorded(t *testing.T) {
	h := freshQuickHarness()
	h.Events = events.MustNew(events.DefaultCapacity)
	if _, err := h.Standalone(CNN1); err != nil {
		t.Fatal(err)
	}
	if got := h.Events.Len(); got != 0 {
		t.Errorf("standalone run emitted %d events into the harness recorder", got)
	}
}

// Sharing one recorder across sequential runs yields one merged stream in
// seq order, each run's events appended after the previous run's.
func TestSequentialRunsShareOneStream(t *testing.T) {
	h := freshQuickHarness()
	h.Events = events.MustNew(events.DefaultCapacity)
	mix := StitchSweep(4)

	if _, err := h.RunNormalized(CNN1, mix, policy.Kelp); err != nil {
		t.Fatal(err)
	}
	mark := h.Events.State().NextSeq - 1
	if mark == 0 {
		t.Fatal("first run recorded nothing")
	}
	if _, err := h.RunNormalized(CNN1, mix, policy.Baseline); err != nil {
		t.Fatal(err)
	}
	second := h.Events.Since(mark)
	if len(second) == 0 {
		t.Fatal("second run recorded nothing")
	}
	// The Baseline run installs no controllers, so its slice of the stream
	// has admissions and memsys transitions but no actuations.
	for _, e := range second {
		if e.Type == events.KelpActuate {
			t.Fatalf("baseline-run slice contains %s", e.Type)
		}
	}
}
