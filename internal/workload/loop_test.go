package workload

import (
	"bytes"
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
		{Threads: 1, UnitWork: math.Inf(1)},
		{Threads: 1, UnitWork: math.NaN()},
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

// advanceRef is one tick of the loop as a per-tick reference: the float
// operations AdvanceN must repeat, tick by tick, in this order.
func advanceRef(l *Loop, now, dt, cores float64, r *Rates) {
	active := min(float64(l.cfg.Threads), cores)
	if active <= 0 {
		return
	}
	l.partial += dt * active * r.CPUFactor
	if n := l.partial / l.cfg.UnitWork; n >= 1 {
		whole := float64(int64(n))
		l.units.Add(now+dt, whole)
		l.partial -= whole * l.cfg.UnitWork
	}
}

// sameLoopState reports whether two loops hold bit-identical state: the
// partial unit and every meter field, lastTime included (gob encodes
// floats by bit pattern).
func sameLoopState(t *testing.T, a, b *Loop) bool {
	t.Helper()
	ga, err := a.units.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.units.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return math.Float64bits(a.partial) == math.Float64bits(b.partial) && bytes.Equal(ga, gb)
}

// checkAdvanceN runs one AdvanceN(k), k Advance calls and k reference
// ticks from the same state, with now advanced by repeated adds, and fails
// unless all three end bit-identical.
func checkAdvanceN(t *testing.T, cfg LoopConfig, partial, now, dt float64, k int, cores float64, r *Rates, measured bool) {
	t.Helper()
	mk := func() *Loop {
		l := MustLoop("l", cfg)
		l.partial = partial
		if measured {
			l.StartMeasurement(now)
		}
		return l
	}
	batch, single, ref := mk(), mk(), mk()
	batch.AdvanceN(now, dt, k, cores, r)
	at := now
	for range k {
		if single.Advance(at, dt, cores, r) {
			t.Fatal("Loop.Advance reported reoffer")
		}
		advanceRef(ref, at, dt, cores, r)
		at += dt
	}
	if !sameLoopState(t, single, ref) {
		t.Fatalf("%+v k=%d cores=%v cpu=%v: Advance diverged from the reference", cfg, k, cores, r.CPUFactor)
	}
	if !sameLoopState(t, batch, ref) {
		t.Fatalf("%+v k=%d cores=%v cpu=%v: AdvanceN partial %v meter %+v, reference %v %+v",
			cfg, k, cores, r.CPUFactor, batch.partial, batch.units, ref.partial, ref.units)
	}
}

// One AdvanceN(k) must equal k Advance calls bit for bit, over run lengths
// up to 2000 ticks, fractional and non-positive cores, and execution
// factors from vanishing to extreme.
func TestLoopAdvanceNMatchesAdvance(t *testing.T) {
	cfgs := []LoopConfig{
		{Threads: 8, UnitWork: 1e-3},
		{Threads: 3, UnitWork: 0.37},
		{Threads: 16, UnitWork: 2.5e-6},
	}
	for _, cfg := range cfgs {
		for _, k := range []int{0, 1, 2, 17, 999, 2000} {
			for _, cores := range []float64{-1, 0, 0.25, 1.7, 3, 64} {
				for _, cpu := range []float64{0, 1e-300, 0.013, 0.5, 1, 1.45, 1e6, 1e300} {
					r := fullRates()
					r.CPUFactor = cpu
					checkAdvanceN(t, cfg, 0.3*cfg.UnitWork, 1.25, 1e-4, k, cores, r, k%2 == 0)
				}
			}
		}
	}
}

// FuzzLoopAdvanceN compares one AdvanceN(k) against k Advance calls and the
// per-tick reference from arbitrary states.
func FuzzLoopAdvanceN(f *testing.F) {
	f.Add(uint8(8), 1e-3, 0.0, 0.0, 1e-4, uint16(1000), 8.0, 1.0, true)
	f.Add(uint8(3), 0.37, 0.1, 2.5, 1e-4, uint16(2000), 1.7, 0.013, false)
	f.Add(uint8(1), 1e-9, 0.0, 1e9, 1e-3, uint16(77), 0.5, 1e300, true)
	f.Add(uint8(4), 1.0, 0.5, 0.0, 1e-4, uint16(5), -2.0, 1.0, false)
	f.Fuzz(func(t *testing.T, threads uint8, unit, partial, now, dt float64, k uint16, cores, cpu float64, measured bool) {
		cfg := LoopConfig{Threads: 1 + int(threads)%64, UnitWork: unit}
		if cfg.Validate() != nil {
			t.Skip()
		}
		r := fullRates()
		r.CPUFactor = cpu
		checkAdvanceN(t, cfg, partial, now, dt, int(k)%2001, cores, r, measured)
	})
}
