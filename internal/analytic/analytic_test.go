package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
	"kelp/internal/node"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

func TestTrainingStepTime(t *testing.T) {
	cnn1, _ := workload.NewCNN1(accel.NewCloudTPU())
	full, err := TrainingStepTime(cnn1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-cnn1.StandaloneStepTime()) > 1e-12 {
		t.Errorf("full-rate step %v != standalone %v", full, cnn1.StandaloneStepTime())
	}
	half, _ := TrainingStepTime(cnn1, 0.5)
	host := cnn1.StandaloneStepTime() * cnn1.HostShare()
	want := cnn1.StandaloneStepTime() + host
	if math.Abs(half-want) > 1e-12 {
		t.Errorf("half-rate step %v, want %v", half, want)
	}
	if _, err := TrainingStepTime(cnn1, 0); err == nil {
		t.Error("zero factor accepted")
	}
}

// TestSimulationMatchesAnalyticTraining is the core cross-validation: a
// training task simulated at a pinned CPU factor must match the closed-form
// throughput.
func TestSimulationMatchesAnalyticTraining(t *testing.T) {
	for _, factor := range []float64{1.0, 0.5, 0.25} {
		cnn1, _ := workload.NewCNN1(accel.NewCloudTPU())
		want, err := TrainingThroughput(cnn1, factor)
		if err != nil {
			t.Fatal(err)
		}
		r := workload.Rates{CPUFactor: factor, LatencyStretch: 1, BWFraction: 1, LLCHit: 1, Backpressure: 1, SnoopStretch: 1}
		now, dt := 0.0, 100e-6
		cnn1.StartMeasurement(0)
		for now < 3.0 {
			cnn1.Advance(now, dt, 1, 8, &r)
			now += dt
		}
		got := cnn1.Throughput(now)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("factor %v: simulated %v steps/s, analytic %v", factor, got, want)
		}
	}
}

func TestTrainingSlowdownFromPerf(t *testing.T) {
	// Round trip: stretch -> perf -> stretch.
	hs := 0.25
	for _, stretch := range []float64{1.0, 2.0, 5.0} {
		perf := 1 / ((1 - hs) + hs*stretch)
		got, err := TrainingSlowdownFromPerf(hs, perf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-stretch) > 1e-9 {
			t.Errorf("round trip %v -> %v", stretch, got)
		}
	}
	if _, err := TrainingSlowdownFromPerf(0, 0.5); err == nil {
		t.Error("zero host share accepted")
	}
	if _, err := TrainingSlowdownFromPerf(0.5, 0); err == nil {
		t.Error("zero perf accepted")
	}
}

func TestInferenceCapacityMatchesSimulation(t *testing.T) {
	dev, _ := accel.NewDevice(accel.NewTPU())
	base, _ := workload.NewRNN1(dev, nil)
	cfg := base.Config()

	want, err := InferenceCapacity(cfg, dev.Platform, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Closed-loop simulation at 2 cores, full rate.
	r := workload.Rates{CPUFactor: 1, LatencyStretch: 1, BWFraction: 1, LLCHit: 1, Backpressure: 1, SnoopStretch: 1}
	now, dt := 0.0, 100e-6
	for now < 1.0 {
		base.Advance(now, dt, 1, 2, &r)
		now += dt
	}
	base.StartMeasurement(now)
	for now < 4.0 {
		base.Advance(now, dt, 1, 2, &r)
		now += dt
	}
	got := base.Throughput(now)
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("simulated %v QPS, analytic ceiling %v", got, want)
	}
	if _, err := InferenceCapacity(cfg, dev.Platform, 0, 1); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestBandwidthShareMatchesMemsys(t *testing.T) {
	cfg := node.DefaultConfig()
	n := node.MustNew(cfg)
	if _, err := n.Cgroups().Create("a", cgroup.Low); err != nil {
		t.Fatal(err)
	}
	n.Cgroups().SetCPUs("a", n.Processor().SocketCores(0).Take(14))
	agg, _ := workload.NewDRAMAggressor(workload.LevelHigh)
	n.AddTask(agg, "a")
	n.Run(10 * sim.Millisecond)
	res := n.Memory().Last()
	fr := res.Flows[0]
	want, err := BandwidthShare(fr.DRAMTraffic, 0, cfg.Memory.SocketBW())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fr.BWFraction-want) > 0.01 {
		t.Errorf("sim share %v, analytic %v", fr.BWFraction, want)
	}
}

func TestBandwidthShareProperties(t *testing.T) {
	f := func(d, b, c float64) bool {
		// Map arbitrary inputs into physical bandwidth magnitudes.
		norm := func(v float64) float64 {
			return math.Mod(math.Abs(v), 1e12)
		}
		d, b, c = norm(d), norm(b), norm(c)+1
		got, err := BandwidthShare(d, b, c)
		if err != nil {
			return false
		}
		return got > 0 && got <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if _, err := BandwidthShare(1, 1, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestMMnWait(t *testing.T) {
	w, err := MMnWait(0.01, 0.5)
	if err != nil || math.Abs(w-0.01) > 1e-12 {
		t.Errorf("MMnWait = %v, %v", w, err)
	}
	// Wait explodes toward saturation.
	w9, _ := MMnWait(0.01, 0.9)
	if !(w9 > w*5) {
		t.Errorf("wait at rho 0.9 = %v, want far above rho 0.5's %v", w9, w)
	}
	if _, err := MMnWait(0.01, 1.0); err == nil {
		t.Error("rho = 1 accepted")
	}
	if _, err := MMnWait(0, 0.5); err == nil {
		t.Error("zero service accepted")
	}
}

func TestLockstepRate(t *testing.T) {
	got, err := LockstepRate([]float64{30, 15, 28})
	if err != nil || got != 15 {
		t.Errorf("LockstepRate = %v, %v", got, err)
	}
	if _, err := LockstepRate(nil); err == nil {
		t.Error("empty workers accepted")
	}
	if _, err := LockstepRate([]float64{1, 0}); err == nil {
		t.Error("zero rate accepted")
	}
}
