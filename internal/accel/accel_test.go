package accel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlatformsValidate(t *testing.T) {
	for _, p := range []Platform{NewTPU(), NewCloudTPU(), NewGPU()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	base := NewTPU()
	mutations := []func(*Platform){
		func(p *Platform) { p.ComputeRate = 0 },
		func(p *Platform) { p.LocalMemBW = -1 },
		func(p *Platform) { p.PCIeBW = 0 },
		func(p *Platform) { p.PCIeLatency = -1 },
		func(p *Platform) { p.HostCoherencePenalty = 0.9 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{TPU: "TPU", CloudTPU: "CloudTPU", GPU: "GPU", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestCloudTPUHasCoherencePenalty(t *testing.T) {
	if NewCloudTPU().HostCoherencePenalty <= 1 {
		t.Error("Cloud TPU platform should carry a remote-coherence penalty (paper §VI-A)")
	}
	if NewTPU().HostCoherencePenalty >= NewCloudTPU().HostCoherencePenalty ||
		NewGPU().HostCoherencePenalty >= NewCloudTPU().HostCoherencePenalty {
		t.Error("TPU/GPU platforms should have milder coherence penalties than Cloud TPU")
	}
}

func TestComputeAndTransferTimes(t *testing.T) {
	p := NewTPU()
	if got := p.ComputeTime(p.ComputeRate); math.Abs(got-1) > 1e-12 {
		t.Errorf("ComputeTime(rate) = %v, want 1s", got)
	}
	if p.ComputeTime(0) != 0 || p.ComputeTime(-5) != 0 {
		t.Error("non-positive work should take zero time")
	}
	if got := p.TransferTime(p.PCIeBW); math.Abs(got-(1+p.PCIeLatency)) > 1e-9 {
		t.Errorf("TransferTime = %v", got)
	}
	if p.TransferTime(0) != 0 {
		t.Error("zero bytes should take zero time")
	}
}

func TestDeviceFIFO(t *testing.T) {
	d, err := NewDevice(NewTPU())
	if err != nil {
		t.Fatal(err)
	}
	w := d.Platform.ComputeRate * 0.010 // 10 ms of work
	f1 := d.Reserve(0, w)
	if math.Abs(f1-0.010) > 1e-9 {
		t.Fatalf("first finish = %v, want 10ms", f1)
	}
	// Second request issued at 2 ms must queue behind the first.
	f2 := d.Reserve(0.002, w)
	if math.Abs(f2-0.020) > 1e-9 {
		t.Fatalf("second finish = %v, want 20ms (queued)", f2)
	}
	// A request after the device idles starts immediately.
	f3 := d.Reserve(0.050, w)
	if math.Abs(f3-0.060) > 1e-9 {
		t.Fatalf("third finish = %v, want 60ms", f3)
	}
	if d.BusyUntil() != f3 {
		t.Errorf("BusyUntil = %v, want %v", d.BusyUntil(), f3)
	}
}

func TestNewDeviceRejectsInvalid(t *testing.T) {
	p := NewTPU()
	p.ComputeRate = 0
	if _, err := NewDevice(p); err == nil {
		t.Error("invalid platform accepted")
	}
}

// Property: FIFO reservation never finishes earlier than a later request's
// issue time plus its own compute time, and finishes are monotone.
func TestReserveMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		d, _ := NewDevice(NewCloudTPU())
		rng := newRand(seed)
		now, prevFinish := 0.0, 0.0
		for i := 0; i < 50; i++ {
			now += rng.Float64() * 0.002
			work := rng.Float64() * d.Platform.ComputeRate * 0.003
			fin := d.Reserve(now, work)
			if fin < prevFinish-1e-12 {
				return false
			}
			if fin < now+d.Platform.ComputeTime(work)-1e-12 {
				return false
			}
			prevFinish = fin
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
