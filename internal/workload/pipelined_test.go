package workload

import (
	"math"
	"testing"

	"kelp/internal/accel"
)

func newPipelined(t *testing.T) *Pipelined {
	t.Helper()
	p, err := PipelinedCNN1(accel.NewCloudTPU())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runPipelined(p *Pipelined, cores float64, r *Rates, dur float64) float64 {
	now, dt := 0.0, 100e-6
	warm := dur * 0.2
	for now < warm {
		p.Advance(now, dt, cores, r)
		now += dt
	}
	p.StartMeasurement(now)
	for now < dur {
		p.Advance(now, dt, cores, r)
		now += dt
	}
	return now
}

func TestPipelinedValidation(t *testing.T) {
	plat := accel.NewCloudTPU()
	good := func() (*Pipelined, error) {
		return NewPipelined("p", plat, 5e-3, 2, MemProfile{}, 1e12, 2)
	}
	if _, err := good(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fn   func() (*Pipelined, error)
	}{
		{"empty name", func() (*Pipelined, error) {
			return NewPipelined("", plat, 5e-3, 2, MemProfile{}, 1e12, 2)
		}},
		{"zero cpu work", func() (*Pipelined, error) {
			return NewPipelined("p", plat, 0, 2, MemProfile{}, 1e12, 2)
		}},
		{"zero parallel", func() (*Pipelined, error) {
			return NewPipelined("p", plat, 5e-3, 0, MemProfile{}, 1e12, 2)
		}},
		{"zero accel", func() (*Pipelined, error) {
			return NewPipelined("p", plat, 5e-3, 2, MemProfile{}, 0, 2)
		}},
		{"zero buffer", func() (*Pipelined, error) {
			return NewPipelined("p", plat, 5e-3, 2, MemProfile{}, 1e12, 0)
		}},
		{"bad mem", func() (*Pipelined, error) {
			return NewPipelined("p", plat, 5e-3, 2, MemProfile{RemoteFrac: 2}, 1e12, 2)
		}},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestPipelinedHidesHostTimeWhenUncontended(t *testing.T) {
	p := newPipelined(t)
	now := runPipelined(p, 8, fullRates(), 4.0)
	got := p.Throughput(now)
	want := p.StandaloneThroughput()
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("pipelined throughput %v, want ~%v", got, want)
	}
	// Overlap makes the pipelined variant faster than the serial CNN1,
	// whose step is infeed + accel back to back.
	serial, _ := NewCNN1(accel.NewCloudTPU())
	serialRate := 1 / serial.StandaloneStepTime()
	if !(got > serialRate*1.1) {
		t.Errorf("pipelined %v not faster than serial %v", got, serialRate)
	}
}

func TestPipelinedStillSensitiveUnderHeavyContention(t *testing.T) {
	// The ablation the model supports: double buffering hides moderate
	// host slowdown entirely but cannot hide a producer slower than the
	// accelerator — the paper's pipelined production workloads still
	// degrade under heavy contention.
	run := func(factor float64) float64 {
		p := newPipelined(t)
		r := fullRates()
		r.CPUFactor = factor
		now := runPipelined(p, 8, r, 4.0)
		return p.Throughput(now)
	}
	full := run(1.0)
	// Moderate contention: producer still outpaces the accelerator.
	mild := run(0.8)
	if math.Abs(mild-full)/full > 0.03 {
		t.Errorf("mild contention dropped pipelined throughput: %v vs %v", mild, full)
	}
	// Heavy contention: producer becomes the bottleneck.
	heavy := run(0.2)
	if !(heavy < full*0.75) {
		t.Errorf("heavy contention: %v, want well below %v", heavy, full)
	}
}

func TestPipelinedBufferBounded(t *testing.T) {
	p := newPipelined(t)
	now, dt := 0.0, 100e-6
	for now < 2.0 {
		p.Advance(now, dt, 8, fullRates())
		now += dt
		if p.Buffered() > 2.0+1e-9 {
			t.Fatalf("buffer exceeded capacity: %v", p.Buffered())
		}
	}
}

func TestPipelinedOfferPausesWhenBufferFull(t *testing.T) {
	p := newPipelined(t)
	// Fill the buffer with no consumption by stopping before a step
	// completes: run briefly with a huge CPU factor.
	r := fullRates()
	r.CPUFactor = 50
	now, dt := 0.0, 100e-6
	for i := 0; i < 50; i++ {
		p.Advance(now, dt, 8, r)
		now += dt
	}
	if p.Buffered() < 1 {
		t.Fatalf("buffer never filled: %v", p.Buffered())
	}
	if p.Buffered() >= 2 {
		if off := offerOf(p, now, 8); off.ActiveCores != 0 {
			t.Errorf("producer should pause on a full buffer: %+v", off)
		}
	}
}

func TestPipelinedZeroCores(t *testing.T) {
	p := newPipelined(t)
	now, dt := 0.0, 1e-3
	for now < 1.0 {
		p.Advance(now, dt, 0, fullRates())
		now += dt
	}
	if p.Steps() != 0 {
		t.Errorf("steps = %v with no producer cores", p.Steps())
	}
}
