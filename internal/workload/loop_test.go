package workload

import (
	"math"
	"testing"
)

func TestLoopValidation(t *testing.T) {
	if _, err := NewLoop("x", LoopConfig{Threads: 1, UnitWork: 1}); err != nil {
		t.Fatal(err)
	}
	bad := []LoopConfig{
		{Threads: 0, UnitWork: 1},
		{Threads: 1, UnitWork: 0},
		{Threads: 1, UnitWork: 1, Mem: MemProfile{RemoteFrac: 2}},
	}
	for i, c := range bad {
		if _, err := NewLoop("x", c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewLoop("", LoopConfig{Threads: 1, UnitWork: 1}); err == nil {
		t.Error("empty name accepted")
	}
}

func runLoop(l *Loop, cores float64, r *Rates, dur float64) float64 {
	now, dt := 0.0, 1e-3
	l.StartMeasurement(0)
	for now < dur {
		l.Advance(now, dt, cores, r)
		now += dt
	}
	return now
}

func TestLoopThroughputScalesWithCoresAndRate(t *testing.T) {
	mk := func() *Loop { return MustLoop("l", LoopConfig{Threads: 8, UnitWork: 1e-3}) }

	l1 := mk()
	now := runLoop(l1, 8, fullRates(), 2.0)
	full := l1.Throughput(now)
	want := 8 / 1e-3 // 8 cores * 1000 units per core-second
	if math.Abs(full-want)/want > 0.01 {
		t.Errorf("full throughput = %v, want %v", full, want)
	}

	l2 := mk()
	now = runLoop(l2, 4, fullRates(), 2.0)
	if got := l2.Throughput(now); math.Abs(got-full/2)/full > 0.01 {
		t.Errorf("half-cores throughput = %v, want %v", got, full/2)
	}

	l3 := mk()
	r := fullRates()
	r.CPUFactor = 0.5
	now = runLoop(l3, 8, r, 2.0)
	if got := l3.Throughput(now); math.Abs(got-full/2)/full > 0.01 {
		t.Errorf("half-rate throughput = %v, want %v", got, full/2)
	}
}

func TestLoopZeroCores(t *testing.T) {
	l := MustLoop("l", LoopConfig{Threads: 4, UnitWork: 1e-3})
	now := runLoop(l, 0, fullRates(), 1.0)
	if l.Throughput(now) != 0 {
		t.Error("throughput with zero cores should be 0")
	}
	if off := offerOf(l, 0, 0); off.ActiveCores != 0 {
		t.Errorf("offer with zero cores = %+v", off)
	}
}

func TestLoopOfferCapped(t *testing.T) {
	l := MustLoop("l", LoopConfig{Threads: 4, UnitWork: 1})
	if off := offerOf(l, 0, 2); off.ActiveCores != 2 {
		t.Errorf("offer = %+v, want 2", off)
	}
	if off := offerOf(l, 0, 16); off.ActiveCores != 4 {
		t.Errorf("offer = %+v, want 4 (thread-limited)", off)
	}
}

func TestLoopSetThreads(t *testing.T) {
	l := MustLoop("l", LoopConfig{Threads: 2, UnitWork: 1})
	if err := l.SetThreads(6); err != nil {
		t.Fatal(err)
	}
	if l.Config().Threads != 6 {
		t.Errorf("Threads = %d", l.Config().Threads)
	}
	if err := l.SetThreads(0); err == nil {
		t.Error("SetThreads(0) accepted")
	}
}

func TestLoopStandaloneRate(t *testing.T) {
	l := MustLoop("l", LoopConfig{
		Threads:  4,
		UnitWork: 2e-3,
		Mem:      MemProfile{PrefetchLoss: 0.25},
	})
	want := 4 / 2e-3
	if got := l.StandaloneRate(); math.Abs(got-want) > 1e-9 {
		t.Errorf("StandaloneRate = %v, want %v", got, want)
	}
}

func TestCatalogConstructors(t *testing.T) {
	for _, lv := range Levels() {
		a, err := NewDRAMAggressor(lv)
		if err != nil {
			t.Fatalf("DRAM-%s: %v", lv, err)
		}
		if a.Config().Threads < 1 {
			t.Errorf("DRAM-%s threads = %d", lv, a.Config().Threads)
		}
	}
	// Levels are ordered by thread count.
	lo, _ := NewDRAMAggressor(LevelLow)
	hi, _ := NewDRAMAggressor(LevelHigh)
	if !(hi.Config().Threads > lo.Config().Threads) {
		t.Error("DRAM-H should run more threads than DRAM-L")
	}

	if _, err := NewLLCAggressor(38.5e6); err != nil {
		t.Error(err)
	}
	if _, err := NewLLCAggressor(0); err == nil {
		t.Error("zero LLC size accepted")
	}

	r, err := NewRemoteDRAMAggressor(LevelMedium, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().Mem.RemoteFrac != 0.5 {
		t.Errorf("RemoteFrac = %v", r.Config().Mem.RemoteFrac)
	}
	if _, err := NewRemoteDRAMAggressor(LevelLow, 1.5); err == nil {
		t.Error("bad remoteFrac accepted")
	}

	if s, err := NewStream(0); err != nil || s.Config().Threads != 8 {
		t.Errorf("NewStream(0) = %v, %v", s, err)
	}
	if _, err := NewStitch(1); err != nil {
		t.Error(err)
	}
	if _, err := NewCPUML(4); err != nil {
		t.Error(err)
	}
	if _, err := NewCPUML(0); err == nil {
		t.Error("CPUML with 0 threads accepted")
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{LevelLow: "L", LevelMedium: "M", LevelHigh: "H", Level(9): "Level(9)"}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestAggressorProfilesMatchTheirRoles(t *testing.T) {
	dram, _ := NewDRAMAggressor(LevelHigh)
	llc, _ := NewLLCAggressor(38.5e6)
	// DRAM aggressor: streaming traffic dominates, footprint exceeds LLC.
	if dram.Config().Mem.StreamBWPerCore <= llc.Config().Mem.StreamBWPerCore {
		t.Error("DRAM aggressor should stream more than LLC aggressor")
	}
	if dram.Config().Mem.LLCFootprint <= 38.5e6 {
		t.Error("DRAM aggressor working set should exceed the LLC")
	}
	// LLC aggressor: fits in the cache, heavy reuse.
	if llc.Config().Mem.LLCFootprint >= 38.5e6 {
		t.Error("LLC aggressor should fit in the LLC")
	}
	if llc.Config().Mem.LLCRefBWPerCore <= dram.Config().Mem.LLCRefBWPerCore {
		t.Error("LLC aggressor should have the cache reuse traffic")
	}
}
