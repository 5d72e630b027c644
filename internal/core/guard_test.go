package core

import (
	"math"
	"testing"
)

func TestGuardDefaults(t *testing.T) {
	g := NewGuard(0, 0)
	if g.EnterAfter != DefaultDegradeAfter || g.ExitAfter != DefaultRecoverAfter {
		t.Errorf("NewGuard(0,0) = K%d/J%d", g.EnterAfter, g.ExitAfter)
	}
	g = NewGuard(-1, -1)
	if g.EnterAfter != DefaultDegradeAfter || g.ExitAfter != DefaultRecoverAfter {
		t.Errorf("NewGuard(-1,-1) = K%d/J%d", g.EnterAfter, g.ExitAfter)
	}
}

func TestGuardEntersAfterKConsecutiveFaults(t *testing.T) {
	g := NewGuard(3, 5)
	if g.Fault() || g.Fault() {
		t.Fatal("entered fail-safe before K faults")
	}
	if g.Degraded() {
		t.Fatal("degraded before K faults")
	}
	if !g.Fault() {
		t.Fatal("no transition on the Kth fault")
	}
	if !g.Degraded() || g.Entries() != 1 {
		t.Errorf("after K faults: degraded=%v entries=%d", g.Degraded(), g.Entries())
	}
	// Further faults while degraded are not new transitions.
	if g.Fault() {
		t.Error("re-entered fail-safe while already degraded")
	}
}

func TestGuardCleanPeriodResetsFaultStreak(t *testing.T) {
	g := NewGuard(3, 5)
	g.Fault()
	g.Fault()
	g.Clean() // streak broken
	if g.Fault() || g.Fault() {
		t.Error("entered fail-safe on a non-consecutive streak")
	}
	if g.ConsecutiveFaults() != 2 {
		t.Errorf("fault streak = %d, want 2", g.ConsecutiveFaults())
	}
}

func TestGuardExitsAfterJConsecutiveCleans(t *testing.T) {
	g := NewGuard(2, 3)
	g.Fault()
	g.Fault()
	if !g.Degraded() {
		t.Fatal("not degraded after K faults")
	}
	if g.Clean() || g.Clean() {
		t.Fatal("exited before J clean periods")
	}
	if !g.Clean() {
		t.Fatal("no transition on the Jth clean period")
	}
	if g.Degraded() {
		t.Error("still degraded after J clean periods")
	}
	// Fully recovered: a fresh fault streak is required to re-enter.
	g.Fault()
	if g.Degraded() {
		t.Error("single fault after recovery re-entered fail-safe")
	}
}

// A fault while degraded resets the recovery streak: flapping faults
// cannot bounce the controller out of fail-safe.
func TestGuardFaultResetsRecoveryStreak(t *testing.T) {
	g := NewGuard(2, 3)
	g.Fault()
	g.Fault()
	g.Clean()
	g.Clean()
	g.Fault() // recovery streak back to zero
	if g.CleanStreak() != 0 {
		t.Fatalf("clean streak = %d after fault", g.CleanStreak())
	}
	g.Clean()
	g.Clean()
	if !g.Degraded() {
		t.Fatal("exited with a broken recovery streak")
	}
	g.Clean()
	if g.Degraded() {
		t.Error("still degraded after J consecutive cleans")
	}
	if g.Entries() != 1 {
		t.Errorf("entries = %d, want 1", g.Entries())
	}
}

func TestWatermarksValidateRejectsMalformed(t *testing.T) {
	valid := DefaultWatermarks(38.4e9, 80e-9)
	if err := valid.Validate(); err != nil {
		t.Fatalf("default watermarks invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Watermarks)
	}{
		{"NaN high", func(w *Watermarks) { w.SocketBWHigh = math.NaN() }},
		{"NaN low", func(w *Watermarks) { w.SocketBWLow = math.NaN() }},
		{"Inf high", func(w *Watermarks) { w.LatencyHigh = math.Inf(1) }},
		{"inverted", func(w *Watermarks) { w.SocketBWLow = w.SocketBWHigh * 2 }},
		{"equal hi/low", func(w *Watermarks) { w.LatencyLow = w.LatencyHigh }},
		{"negative low", func(w *Watermarks) { w.SaturationLow = -0.1 }},
		{"zero high", func(w *Watermarks) { w.HiPriorityBWHigh = 0 }},
		{"saturation > 1", func(w *Watermarks) { w.SaturationHigh = 1.5 }},
	}
	for _, c := range cases {
		w := valid
		c.mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestConfigValidateRejectsNaNPeriodAndNegativeGuards(t *testing.T) {
	n := testNode(t)
	base := testConfig(n)
	if err := base.Validate(n); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	cfg := base
	cfg.SamplePeriod = math.NaN()
	if err := cfg.Validate(n); err == nil {
		t.Error("NaN sample period accepted")
	}
	cfg = base
	cfg.DegradeAfter = -1
	if err := cfg.Validate(n); err == nil {
		t.Error("negative DegradeAfter accepted")
	}
	cfg = base
	cfg.RecoverAfter = -2
	if err := cfg.Validate(n); err == nil {
		t.Error("negative RecoverAfter accepted")
	}
}

// SampleBounds must sit far above any value the simulated memory system
// can produce, so legitimate readings are never rejected.
func TestSanityBoundsAboveOperatingRange(t *testing.T) {
	w := DefaultWatermarks(38.4e9, 80e-9)
	b := SampleBounds(w.SocketBWHigh, w.LatencyHigh)
	if b.MaxBW <= w.SocketBWHigh*2 {
		t.Errorf("MaxBW %v too close to the high watermark %v", b.MaxBW, w.SocketBWHigh)
	}
	if b.MaxLatency <= w.LatencyHigh*2 {
		t.Errorf("MaxLatency %v too close to the high watermark %v", b.MaxLatency, w.LatencyHigh)
	}
}
