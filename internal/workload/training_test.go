package workload

import (
	"math"
	"testing"

	"kelp/internal/accel"
)

func fullRates() *Rates {
	return &Rates{CPUFactor: 1, LatencyStretch: 1, BWFraction: 1, LLCHit: 1, Backpressure: 1}
}

// offerOf returns t's offer in a fresh slot.
func offerOf(t Task, now, cores float64) Offer {
	var o Offer
	t.Offer(now, cores, &o)
	return o
}

func TestNewTrainingValidation(t *testing.T) {
	plat := accel.NewCloudTPU()
	okPhases := []Phase{
		{Kind: CPUPhase, CPUWork: 1e-3, Parallel: 2},
		{Kind: AccelPhase, AccelWork: 1e9},
	}
	if _, err := NewTraining("x", plat, okPhases); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		phases []Phase
	}{
		{"empty", nil},
		{"cpu no work", []Phase{{Kind: CPUPhase, Parallel: 1}}},
		{"cpu no parallel", []Phase{{Kind: CPUPhase, CPUWork: 1}}},
		{"accel no work", []Phase{{Kind: AccelPhase}}},
		{"xfer no bytes", []Phase{{Kind: XferPhase}}},
		{"bad kind", []Phase{{Kind: PhaseKind(9)}}},
		{"bad mem", []Phase{{Kind: CPUPhase, CPUWork: 1, Parallel: 1, Mem: MemProfile{RemoteFrac: 2}}}},
	}
	for _, c := range cases {
		if _, err := NewTraining("x", plat, c.phases); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewTraining("", plat, okPhases); err == nil {
		t.Error("empty name accepted")
	}
	bad := plat
	bad.ComputeRate = 0
	if _, err := NewTraining("x", bad, okPhases); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestTrainingStandaloneThroughput(t *testing.T) {
	cnn1, err := NewCNN1(accel.NewCloudTPU())
	if err != nil {
		t.Fatal(err)
	}
	stepTime := cnn1.StandaloneStepTime()
	if stepTime <= 0 {
		t.Fatal("StandaloneStepTime <= 0")
	}
	// Advance with full rates and plenty of cores for 200 steps' worth.
	dt := 100e-6
	dur := 200 * stepTime
	now := 0.0
	cnn1.StartMeasurement(0)
	for now < dur {
		cnn1.Advance(now, dt, 8, fullRates())
		now += dt
	}
	got := cnn1.Throughput(now)
	want := 1 / stepTime
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("standalone throughput = %v steps/s, want ~%v", got, want)
	}
}

func TestTrainingSlowsWithCPUFactor(t *testing.T) {
	plat := accel.NewCloudTPU()
	run := func(factor float64) float64 {
		task, _ := NewCNN1(plat)
		r := fullRates()
		r.CPUFactor = factor
		dt := 100e-6
		now := 0.0
		task.StartMeasurement(0)
		for now < 3.0 {
			task.Advance(now, dt, 8, r)
			now += dt
		}
		return task.Throughput(now)
	}
	full := run(1.0)
	slow := run(0.25)
	if !(slow < full*0.85) {
		t.Errorf("throughput %v at factor 0.25, want well below %v", slow, full)
	}
	// CNN1's host share bounds the damage: accel time is unaffected.
	if slow < full*0.2 {
		t.Errorf("throughput %v dropped more than host share allows (full %v)", slow, full)
	}
}

func TestTrainingNoCoresNoProgress(t *testing.T) {
	task, _ := NewCNN1(accel.NewCloudTPU())
	task.StartMeasurement(0)
	now := 0.0
	dt := 1e-3
	for now < 1.0 {
		task.Advance(now, dt, 0, fullRates())
		now += dt
	}
	if task.Steps() != 0 {
		t.Errorf("made %v steps with zero cores", task.Steps())
	}
	if ph, kind := task.CurrentPhase(); ph != 0 || kind != CPUPhase {
		t.Errorf("phase advanced to %d/%v without cores", ph, kind)
	}
}

func TestTrainingAccelPhaseInsensitiveToCPUFactor(t *testing.T) {
	// A task that is all accelerator work finishes at the same rate
	// regardless of host contention.
	plat := accel.NewCloudTPU()
	phases := []Phase{
		{Kind: CPUPhase, CPUWork: 1e-6, Parallel: 1}, // negligible host work
		{Kind: AccelPhase, AccelWork: 5e-3 * plat.ComputeRate},
	}
	run := func(factor float64) float64 {
		task := MustTraining("acc", plat, phases)
		r := fullRates()
		r.CPUFactor = factor
		now, dt := 0.0, 100e-6
		task.StartMeasurement(0)
		for now < 2.0 {
			task.Advance(now, dt, 4, r)
			now += dt
		}
		return task.Throughput(now)
	}
	full, slow := run(1.0), run(0.1)
	if math.Abs(full-slow)/full > 0.02 {
		t.Errorf("accel-bound task affected by CPU factor: %v vs %v", full, slow)
	}
}

func TestTrainingOfferOnlyDuringCPUPhase(t *testing.T) {
	plat := accel.NewCloudTPU()
	task, _ := NewCNN1(plat)
	off := offerOf(task, 0, 8)
	if off.ActiveCores != 2 {
		t.Errorf("CPU-phase offer = %+v, want 2 active cores", off)
	}
	// Cores cap the offer.
	if got := offerOf(task, 0, 1); got.ActiveCores != 1 {
		t.Errorf("capped offer = %+v", got)
	}
	// Drive into the accel phase and check the offer disappears.
	now, dt := 0.0, 100e-6
	for i := 0; i < 100000; i++ {
		if _, kind := task.CurrentPhase(); kind == AccelPhase {
			break
		}
		task.Advance(now, dt, 8, fullRates())
		now += dt
	}
	if _, kind := task.CurrentPhase(); kind != AccelPhase {
		t.Fatal("never reached accel phase")
	}
	if off := offerOf(task, now, 8); off.ActiveCores != 0 {
		t.Errorf("accel-phase offer = %+v, want idle", off)
	}
}

func TestHostShare(t *testing.T) {
	cnn1, _ := NewCNN1(accel.NewCloudTPU())
	hs := cnn1.HostShare()
	if hs <= 0 || hs >= 1 {
		t.Errorf("HostShare = %v, want in (0,1)", hs)
	}
	// CNN1: 2.5 ms host / (2.5 + xfer + 7.5) ms total.
	if hs < 0.15 || hs > 0.35 {
		t.Errorf("CNN1 HostShare = %v, want ~0.25", hs)
	}
}

func TestWorkloadCatalogSensitivityOrdering(t *testing.T) {
	// The paper's Table I: CNN2 has the highest CPU intensity; CNN3 the
	// highest host memory demand.
	cnn1, _ := NewCNN1(accel.NewCloudTPU())
	cnn2, _ := NewCNN2(accel.NewCloudTPU())
	cnn3, _ := NewCNN3(accel.NewGPU())
	if !(cnn2.HostShare() > cnn1.HostShare()) {
		t.Errorf("CNN2 host share %v should exceed CNN1's %v", cnn2.HostShare(), cnn1.HostShare())
	}
	bw := func(tr *Training) float64 {
		for _, ph := range trainingPhases(tr) {
			if ph.Kind == CPUPhase {
				return ph.Mem.StreamBWPerCore * float64(ph.Parallel)
			}
		}
		return 0
	}
	if !(bw(cnn3) > bw(cnn1)) {
		t.Errorf("CNN3 host BW %v should exceed CNN1's %v", bw(cnn3), bw(cnn1))
	}
}

// trainingPhases exposes phases for tests.
func trainingPhases(t *Training) []Phase { return t.phases }
