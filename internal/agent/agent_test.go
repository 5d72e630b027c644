package agent

import (
	"testing"

	"kelp/internal/accel"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/profile"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

func testAgent(t *testing.T, k policy.Kind) *Agent {
	t.Helper()
	opts := policy.DefaultOptions()
	opts.SamplePeriod = 0.1
	a, err := New(Config{
		Node:    node.DefaultConfig(),
		Policy:  k,
		Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func cnn1(t *testing.T) *workload.Training {
	t.Helper()
	task, err := workload.NewCNN1(accel.NewCloudTPU())
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestAdmissionFlow(t *testing.T) {
	a := testAgent(t, policy.Kelp)
	if err := a.AdmitBatch(nil); err == nil {
		t.Error("batch before ML accepted")
	}
	ml := cnn1(t)
	if err := a.AdmitML(ml, 2); err != nil {
		t.Fatal(err)
	}
	if a.mlName != "CNN1" {
		t.Errorf("ML task = %q", a.mlName)
	}
	if a.Applied() == nil || a.Applied().Runtime == nil {
		t.Fatal("policy not applied")
	}
	// Second accelerated task is rejected (exclusive use, §II-A).
	ml2, _ := workload.NewCNN2(accel.NewCloudTPU())
	if err := a.AdmitML(ml2, 8); err == nil {
		t.Error("second ML task admitted")
	}

	// Batch tasks place into low first, with periodic backfill under KP.
	groups := map[string]int{}
	for i := 0; i < 8; i++ {
		b, err := workload.NewStitch(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AdmitBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range a.Node().Cgroups().Groups() {
		groups[g.Name()] = 0
	}
	// Count placements by checking each task's progress group via rates.
	// Simpler: the backfill group must hold 2 of 8 tasks (every 4th).
	low, _ := a.Node().Cgroups().Group(policy.LowGroup)
	bf, _ := a.Node().Cgroups().Group(policy.BackfillGroup)
	_ = low
	_ = bf
	a.Run(500 * sim.Millisecond)
	if ml.Throughput(a.Node().Now()) == 0 {
		t.Error("ML task made no progress")
	}
}

func TestBatchPlacementSplit(t *testing.T) {
	a := testAgent(t, policy.Kelp)
	if err := a.AdmitML(cnn1(t), 2); err != nil {
		t.Fatal(err)
	}
	backfilled := 0
	for i := 0; i < 8; i++ {
		b, _ := workload.NewStitch(i)
		before := a.batchSeq
		if err := a.AdmitBatch(b); err != nil {
			t.Fatal(err)
		}
		if a.applied.Backfill != "" && (before+1)%4 == 0 {
			backfilled++
		}
	}
	if backfilled != 2 {
		t.Errorf("backfilled %d of 8, want 2", backfilled)
	}
}

func TestNoBackfillGroupUnderKPSD(t *testing.T) {
	a := testAgent(t, policy.KelpSubdomain)
	if err := a.AdmitML(cnn1(t), 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b, _ := workload.NewStitch(i)
		if err := a.AdmitBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if a.Applied().Backfill != "" {
		t.Error("KP-SD created a backfill group")
	}
}

func TestProfileReachesRuntime(t *testing.T) {
	reg := profile.NewRegistry()
	custom := profile.Default("CNN1")
	custom.Watermarks.SaturationHigh = 0.2
	custom.Watermarks.SaturationLow = 0.1
	custom.SamplePeriodSec = 0.05
	if err := reg.Put(custom); err != nil {
		t.Fatal(err)
	}
	opts := policy.DefaultOptions()
	opts.SamplePeriod = 0 // let the profile decide
	opts.MinLowCores = 0
	opts.MaxBackfillCores = 0
	a, err := New(Config{
		Node:     node.DefaultConfig(),
		Policy:   policy.Kelp,
		Options:  opts,
		Profiles: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AdmitML(cnn1(t), 2); err != nil {
		t.Fatal(err)
	}
	rt := a.Applied().Runtime
	if rt == nil {
		t.Fatal("no runtime")
	}
	if got := rt.Config().Watermarks.SaturationHigh; got != 0.2 {
		t.Errorf("SaturationHigh = %v, want profile's 0.2", got)
	}
	if got := rt.Config().SamplePeriod; got != 0.05 {
		t.Errorf("SamplePeriod = %v, want profile's 0.05", got)
	}
}

func TestAdmitValidation(t *testing.T) {
	a := testAgent(t, policy.Baseline)
	if err := a.AdmitML(nil, 2); err == nil {
		t.Error("nil ML accepted")
	}
	if err := a.AdmitML(cnn1(t), 0); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestAgentEndToEndProtection(t *testing.T) {
	run := func(k policy.Kind) float64 {
		a := testAgent(t, k)
		ml := cnn1(t)
		if err := a.AdmitML(ml, 2); err != nil {
			t.Fatal(err)
		}
		agg, _ := workload.NewDRAMAggressor(workload.LevelHigh)
		if err := a.AdmitBatch(agg); err != nil {
			t.Fatal(err)
		}
		a.Run(1500 * sim.Millisecond)
		a.StartMeasurement()
		a.Run(1 * sim.Second)
		return ml.Throughput(a.Node().Now())
	}
	bl := run(policy.Baseline)
	kp := run(policy.Kelp)
	if !(kp > bl*1.3) {
		t.Errorf("Kelp via agent: %v steps/s, want well above Baseline's %v", kp, bl)
	}
}
