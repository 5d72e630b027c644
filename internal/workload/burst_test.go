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

// FuzzLoopOfferHorizon pins a bursting Loop's offer horizon. For any valid
// burst schedule and any now, the offer at every 100µs tick in [now, until)
// must equal the offer at now, and until must lie within 1µs before the
// burst edge, so the horizon is neither unsafe nor vacuous. Each input is
// folded into range by its fractional part: every finite input is a valid
// schedule whose burst and idle windows are at least 2µs wide.
func FuzzLoopOfferHorizon(f *testing.F) {
	f.Add(0.3, 0.6, 0.555, 0.0, 0.3)   // Stitch-like schedule at the start
	f.Add(0.4, 0.5, 0.5, 0.3, 0.3)     // CPUML-like schedule, later
	f.Add(0.3, 0.6, 0.11, 0.0895, 0.0) // negative phase, default idle factor
	f.Add(0.1, 0.999, 0.75, 12.5, 0.1) // long burst, short idle window
	f.Add(0.9, 0.0, 0.2, 3.0, 0.5)     // duty 1: never leaves the burst
	f.Fuzz(func(t *testing.T, period, duty, phase, now, idle float64) {
		for _, v := range []float64{period, duty, phase, now, idle} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		unit := func(x float64) float64 { x = math.Abs(x); return x - math.Floor(x) }
		cfg := LoopConfig{
			Threads:         4,
			UnitWork:        1e-3,
			BurstPeriod:     1e-3 + 0.499*unit(period),
			BurstDuty:       unit(duty),
			BurstPhase:      2*unit(phase) - 1,
			BurstIdleFactor: 0.95 * unit(idle),
			Mem:             MemProfile{StreamBWPerCore: 4 * GB, LLCRefBWPerCore: GB},
		}
		if cfg.BurstDuty == 0 {
			cfg.BurstDuty = 1
		}
		if cfg.BurstDuty < 1 && min(cfg.BurstDuty, 1-cfg.BurstDuty)*cfg.BurstPeriod < 2e-6 {
			t.Skip()
		}
		now = 100 * unit(now)
		l, err := NewLoop("bursty", cfg)
		if err != nil {
			t.Fatalf("folded config invalid: %v", err)
		}
		var want Offer
		until := l.Offer(now, 4, &want)

		end := until
		if math.IsInf(until, 1) {
			if cfg.BurstDuty < 1 {
				t.Fatalf("horizon +Inf for duty %v < 1", cfg.BurstDuty)
			}
			end = now + 2*cfg.BurstPeriod
		}
		for k := 1; ; k++ {
			tick := now + float64(k)*100e-6
			if tick >= end {
				break
			}
			if got := offerOf(l, tick, 4); got != want {
				t.Fatalf("%+v: offer at tick %v = %+v, differs from offer at now=%v before until=%v", cfg, tick, got, now, until)
			}
		}
		if math.IsInf(until, 1) {
			return
		}
		if got := offerOf(l, until, 4); got != want {
			t.Fatalf("%+v: offer at until=%v differs from offer at now=%v", cfg, until, now)
		}
		if got := offerOf(l, until+1e-6, 4); got == want {
			t.Fatalf("%+v: offer 1µs past until=%v still equals offer at now=%v: horizon ends early", cfg, until, now)
		}
	})
}
