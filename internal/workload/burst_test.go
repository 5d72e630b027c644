package workload

import (
	"math"
	"testing"
)

func burstLoop(t *testing.T) *Loop {
	t.Helper()
	l, err := NewLoop("bursty", LoopConfig{
		Threads:         4,
		UnitWork:        1e-3,
		BurstPeriod:     0.1,
		BurstDuty:       0.5,
		BurstIdleFactor: 0.25,
		Mem:             MemProfile{StreamBWPerCore: 4 * GB},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBurstValidation(t *testing.T) {
	bad := []LoopConfig{
		{Threads: 1, UnitWork: 1, BurstPeriod: -1},
		{Threads: 1, UnitWork: 1, BurstPeriod: 1, BurstDuty: 0},
		{Threads: 1, UnitWork: 1, BurstPeriod: 1, BurstDuty: 1.5},
		{Threads: 1, UnitWork: 1, BurstIdleFactor: 2},
	}
	for i, c := range bad {
		if _, err := NewLoop("x", c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestBurstModulatesDemand(t *testing.T) {
	l := burstLoop(t)
	// In the burst window (first half of the period): full demand.
	on := offerOf(l, 0.01, 4)
	if on.Mem.StreamBWPerCore != 4*GB {
		t.Errorf("burst-phase demand = %v", on.Mem.StreamBWPerCore)
	}
	// In the idle window: scaled by BurstIdleFactor.
	off := offerOf(l, 0.06, 4)
	if math.Abs(off.Mem.StreamBWPerCore-GB) > 1 {
		t.Errorf("idle-phase demand = %v, want %v", off.Mem.StreamBWPerCore, 1*GB)
	}
	// Next period bursts again.
	again := offerOf(l, 0.11, 4)
	if again.Mem.StreamBWPerCore != 4*GB {
		t.Errorf("second burst demand = %v", again.Mem.StreamBWPerCore)
	}
}

func TestBurstPhaseDesynchronizes(t *testing.T) {
	a, _ := NewStitch(0)
	b, _ := NewStitch(2)
	// At some instants one instance bursts while the other idles.
	desync := false
	for ts := 0.0; ts < 0.3; ts += 0.005 {
		da := offerOf(a, ts, 4).Mem.StreamBWPerCore
		db := offerOf(b, ts, 4).Mem.StreamBWPerCore
		if (da > db*2) || (db > da*2) {
			desync = true
			break
		}
	}
	if !desync {
		t.Error("stitch instances burst in lockstep; phases should differ")
	}
}

func TestSteadyLoopUnaffected(t *testing.T) {
	l := MustLoop("steady", LoopConfig{Threads: 2, UnitWork: 1,
		Mem: MemProfile{StreamBWPerCore: 2 * GB}})
	for _, ts := range []float64{0, 0.03, 0.5, 7.1} {
		if got := offerOf(l, ts, 2).Mem.StreamBWPerCore; got != 2*GB {
			t.Errorf("steady demand at %v = %v", ts, got)
		}
	}
}

func TestBurstDefaultsIdleFactor(t *testing.T) {
	l := MustLoop("b", LoopConfig{
		Threads: 1, UnitWork: 1,
		BurstPeriod: 0.1, BurstDuty: 0.5,
		Mem: MemProfile{StreamBWPerCore: 10 * GB},
	})
	off := offerOf(l, 0.09, 1)
	if math.Abs(off.Mem.StreamBWPerCore-3*GB) > 0.01*GB {
		t.Errorf("default idle demand = %v, want 0.3x", off.Mem.StreamBWPerCore)
	}
}
