package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"kelp/internal/core"
	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/sim"
)

// faultEventTypes are the event types only the fault/degradation machinery
// can emit: none may appear in a clean run.
var faultEventTypes = []events.Type{
	events.FaultSensor, events.FaultActuator, events.FaultStall,
	events.SensorReject, events.ActuateError,
	events.DegradeEnter, events.DegradeExit,
}

// With the injector disabled the control loop must be byte-identical to a
// build without the faults package: same numbers, no injector built, and
// not one fault-path event in the stream.
func TestFaultsDisabledIsNeutral(t *testing.T) {
	mix, err := MixFor(Stitch)
	if err != nil {
		t.Fatal(err)
	}
	plain := freshQuickHarness()
	zeroed := freshQuickHarness()
	zeroed.Faults = faults.Spec{Seed: 12345} // a seed alone enables nothing
	zeroed.Events = events.MustNew(events.DefaultCapacity)

	rp, err := plain.RunNormalized(CNN1, mix, policy.Kelp)
	if err != nil {
		t.Fatal(err)
	}
	rz, err := zeroed.RunNormalized(CNN1, mix, policy.Kelp)
	if err != nil {
		t.Fatal(err)
	}
	if rp.MLPerf != rz.MLPerf || rp.CPUUnits != rz.CPUUnits {
		t.Errorf("disabled injector changed results: MLPerf %v vs %v, CPUUnits %v vs %v",
			rp.MLPerf, rz.MLPerf, rp.CPUUnits, rz.CPUUnits)
	}
	if !reflect.DeepEqual(rp.Raw.PerTask, rz.Raw.PerTask) {
		t.Errorf("disabled injector changed per-task throughputs:\n%v\n%v",
			rp.Raw.PerTask, rz.Raw.PerTask)
	}
	if rz.Raw.Faults.Spec.Enabled() || rz.Raw.Faults.Counts != nil {
		t.Error("disabled spec built an injector")
	}
	for _, ty := range faultEventTypes {
		if got := zeroed.Events.Since(0, ty); len(got) != 0 {
			t.Errorf("clean run emitted %d %s events", len(got), ty)
		}
	}
}

// Identical (seed, spec) pairs must replay identical runs: the same fault
// event stream byte for byte and the same final metrics. The experiments
// package's tests run under -race in CI, so this also exercises the
// injector on the harness's parallel paths.
func TestFaultDeterminism(t *testing.T) {
	mix, err := MixFor(Stitch)
	if err != nil {
		t.Fatal(err)
	}
	spec := faults.Spec{Seed: 7, Drop: 0.2, Stale: 0.2, NaN: 0.1, ActStick: 0.2, Stall: 0.1}
	run := func() (*Result, []byte) {
		t.Helper()
		rec := events.MustNew(events.DefaultCapacity)
		h := freshQuickHarness()
		opts := h.Opts
		opts.MLCores = CNN1.MLCores()
		r, err := Run(Scenario{
			ML: CNN1, CPU: mix, Policy: policy.Kelp,
			Opts: opts, Node: h.Node,
			Warmup: h.Warmup, Measure: h.Measure,
			Events: rec, Faults: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := events.WriteJSONL(&buf, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	r1, ev1 := run()
	r2, ev2 := run()
	if r1.MLThroughput != r2.MLThroughput || r1.CPUUnits != r2.CPUUnits {
		t.Errorf("same seed diverged: ML %v vs %v, CPU %v vs %v",
			r1.MLThroughput, r2.MLThroughput, r1.CPUUnits, r2.CPUUnits)
	}
	if r1.Faults.Total == 0 {
		t.Fatal("spec injected nothing; the determinism check is vacuous")
	}
	if r1.Faults.Total != r2.Faults.Total {
		t.Errorf("fault totals diverged: %d vs %d", r1.Faults.Total, r2.Faults.Total)
	}
	if !reflect.DeepEqual(r1.Faults.Counts, r2.Faults.Counts) {
		t.Errorf("fault counts diverged:\n%v\n%v", r1.Faults.Counts, r2.Faults.Counts)
	}
	if !bytes.Equal(ev1, ev2) {
		t.Error("same seed produced different event streams")
	}
	// A different seed must actually change the fault pattern.
	diff := spec
	diff.Seed = 8
	rec := events.MustNew(events.DefaultCapacity)
	h := freshQuickHarness()
	opts := h.Opts
	opts.MLCores = CNN1.MLCores()
	r3, err := Run(Scenario{
		ML: CNN1, CPU: mix, Policy: policy.Kelp,
		Opts: opts, Node: h.Node,
		Warmup: h.Warmup, Measure: h.Measure,
		Events: rec, Faults: diff,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := events.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ev1, buf.Bytes()) && reflect.DeepEqual(r1.Faults.Counts, r3.Faults.Counts) {
		t.Error("different seeds produced identical fault streams")
	}
}

// Persistent sensor dropout must drive the controller into fail-safe
// within K periods, the hi-priority task must keep running, and the run
// must finish without a panic.
func TestDegradationOnPersistentDropout(t *testing.T) {
	mix, err := MixFor(Stitch)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []policy.Kind{policy.Kelp, policy.CoreThrottle} {
		rec := events.MustNew(events.DefaultCapacity)
		h := freshQuickHarness()
		opts := h.Opts
		opts.MLCores = CNN1.MLCores()
		r, err := Run(Scenario{
			ML: CNN1, CPU: mix, Policy: k,
			Opts: opts, Node: h.Node,
			Warmup: h.Warmup, Measure: h.Measure,
			Events: rec, Faults: faults.Spec{Seed: 1, Drop: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		enters := rec.Since(0, events.DegradeEnter)
		if len(enters) == 0 {
			t.Fatalf("%s: no degrade.enter under total sensor dropout", k)
		}
		// Fail-safe must engage after exactly K faulted periods.
		first := enters[0]
		period := opts.SamplePeriod
		deadline := period * float64(core.DefaultDegradeAfter+1)
		if first.Time > deadline {
			t.Errorf("%s: entered fail-safe at t=%v, want within %v", k, first.Time, deadline)
		}
		if !r.Controls.Degraded {
			t.Errorf("%s: not degraded at end of a fully-dropped run", k)
		}
		if len(rec.Since(0, events.DegradeExit)) != 0 {
			t.Errorf("%s: degrade.exit fired with faults still raining", k)
		}
		if r.MLThroughput <= 0 {
			t.Errorf("%s: hi-priority task stopped (throughput %v)", k, r.MLThroughput)
		}
	}
}

// A stuck actuator is invisible until the controller tries to change
// something; under contention it tries every period, read-back catches the
// stuck write, and the guard degrades. The workload keeps running.
func TestDegradationOnStuckActuator(t *testing.T) {
	mix, err := MixFor(Stitch)
	if err != nil {
		t.Fatal(err)
	}
	rec := events.MustNew(events.DefaultCapacity)
	h := freshQuickHarness()
	opts := h.Opts
	opts.MLCores = CNN1.MLCores()
	r, err := Run(Scenario{
		ML: CNN1, CPU: mix, Policy: policy.CoreThrottle,
		Opts: opts, Node: h.Node,
		Warmup: h.Warmup, Measure: h.Measure,
		Events: rec, Faults: faults.Spec{Seed: 1, ActStick: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Since(0, events.ActuateError)) == 0 {
		t.Fatal("no actuate.error from a fully stuck actuator")
	}
	if len(rec.Since(0, events.DegradeEnter)) == 0 {
		t.Fatal("no degrade.enter from a fully stuck actuator")
	}
	if r.MLThroughput <= 0 {
		t.Errorf("hi-priority task stopped (throughput %v)", r.MLThroughput)
	}
}

// Once the fault clears, the controller must leave fail-safe after J
// consecutive clean periods and emit degrade.exit.
func TestDegradationRecovery(t *testing.T) {
	n, err := node.New(node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := events.MustNew(events.DefaultCapacity)
	n.SetEvents(rec)
	opts := policy.DefaultOptions()
	opts.SamplePeriod = 0.1
	applied, err := policy.Apply(n, policy.Kelp, opts)
	if err != nil {
		t.Fatal(err)
	}
	n.SetFaults(faults.MustInjector(faults.Spec{Seed: 3, Drop: 1}))
	n.Run(1 * sim.Second) // 10 control periods, K=3: well into fail-safe
	if !applied.Degraded() {
		t.Fatal("not degraded after 10 fully-dropped periods")
	}
	if len(rec.Since(0, events.DegradeEnter)) == 0 {
		t.Fatal("no degrade.enter recorded")
	}

	n.SetFaults(nil) // the sensor path heals
	n.Run(1 * sim.Second)
	if applied.Degraded() {
		t.Fatal("still degraded 10 clean periods after the fault cleared")
	}
	exits := rec.Since(0, events.DegradeExit)
	if len(exits) != 1 {
		t.Fatalf("degrade.exit count = %d, want 1", len(exits))
	}
	// Recovery requires J consecutive clean periods, no fewer.
	enters := rec.Since(0, events.DegradeEnter)
	minGap := 0.1 * float64(core.DefaultRecoverAfter-1)
	if gap := exits[0].Time - enters[len(enters)-1].Time; gap < minGap {
		t.Errorf("exited %v after entry, want at least %v (J=%d clean periods)",
			gap, minGap, core.DefaultRecoverAfter)
	}
}

// The resilience study itself: the clean row injects nothing and never
// degrades; every fault regime injects something; the hi-priority task
// survives every regime.
func TestResilienceStudy(t *testing.T) {
	h := freshQuickHarness()
	h.Parallel = 0 // cells own their recorders and injectors: parallel-safe
	rows, err := Resilience(h, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FaultCases(42))*2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Fault == "none" {
			if r.Injected != 0 || r.Enters != 0 || r.DegradedAtEnd {
				t.Errorf("clean row %s/%s: injected=%d enters=%d degraded=%v",
					r.Fault, r.Policy, r.Injected, r.Enters, r.DegradedAtEnd)
			}
		} else if r.Injected == 0 {
			t.Errorf("%s/%s injected nothing", r.Fault, r.Policy)
		}
		if r.MLPerf <= 0 {
			t.Errorf("%s/%s: hi-priority task died (MLPerf %v)", r.Fault, r.Policy, r.MLPerf)
		}
	}
	if ResilienceTable(rows).String() == "" {
		t.Error("empty resilience table")
	}
}
