package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kelp/internal/accel"
)

func TestMemProfileValidate(t *testing.T) {
	good := MemProfile{StreamBWPerCore: GB, LatencySensitivity: 0.5, BWSensitivity: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MemProfile{
		{StreamBWPerCore: -1},
		{LLCFootprint: -1},
		{LLCRefBWPerCore: -1},
		{LatencySensitivity: 1.5},
		{BWSensitivity: -0.1},
		{LLCSensitivity: 2},
		{RemoteFrac: 1.1},
		{PrefetchLoss: 3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d accepted: %+v", i, p)
		}
	}
}

func TestCPUFactorUncontended(t *testing.T) {
	p := MemProfile{LatencySensitivity: 0.8, BWSensitivity: 0.8, LLCSensitivity: 0.5, PrefetchLoss: 0.3}
	r := Rates{LatencyStretch: 1, BWFraction: 1, LLCHit: 1, Backpressure: 1}
	// Full rate = prefetchers on.
	got := CPUFactor(p, r, 1)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("uncontended factor = %v, want 1", got)
	}
	// With prefetchers disabled the task loses PrefetchLoss of its rate.
	got = CPUFactor(p, r, 0)
	if math.Abs(got-0.7) > 1e-9 {
		t.Errorf("prefetch-off factor = %v, want 0.7", got)
	}
	// Half the cores toggled: half the loss.
	got = CPUFactor(p, r, 0.5)
	if math.Abs(got-0.85) > 1e-9 {
		t.Errorf("half-prefetch factor = %v, want 0.85", got)
	}
}

func TestCPUFactorPenalties(t *testing.T) {
	base := Rates{LatencyStretch: 1, BWFraction: 1, LLCHit: 1, Backpressure: 1}

	// Latency stretch slows latency-sensitive work.
	p := MemProfile{LatencySensitivity: 1}
	r := base
	r.LatencyStretch = 3
	if got := CPUFactor(p, r, 0); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("latency penalty = %v, want 1/3", got)
	}
	// ...but not latency-insensitive work.
	if got := CPUFactor(MemProfile{}, r, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("insensitive latency penalty = %v, want 1", got)
	}

	// Bandwidth starvation slows bandwidth-bound work proportionally.
	p = MemProfile{BWSensitivity: 1}
	r = base
	r.BWFraction = 0.25
	if got := CPUFactor(p, r, 0); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("bw penalty = %v, want 0.25", got)
	}

	// LLC misses.
	p = MemProfile{LLCSensitivity: 0.5}
	r = base
	r.LLCHit = 0
	if got := CPUFactor(p, r, 0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("llc penalty = %v, want 0.5", got)
	}

	// Backpressure scales with the workload's sensitivity to it.
	r = base
	r.Backpressure = 0.6
	if got := CPUFactor(MemProfile{BackpressureSensitivity: 1}, r, 0); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("backpressure (sens 1) = %v, want 0.6", got)
	}
	if got := CPUFactor(MemProfile{BackpressureSensitivity: 0.5}, r, 0); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("backpressure (sens 0.5) = %v, want 0.8", got)
	}
	if got := CPUFactor(MemProfile{}, r, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("backpressure (insensitive) = %v, want 1", got)
	}
}

func TestCPUFactorSNCLatencyBonus(t *testing.T) {
	// Lower-than-base latency (SNC local accesses) speeds up
	// latency-sensitive work — the paper's better-than-standalone cases.
	p := MemProfile{LatencySensitivity: 0.9}
	r := Rates{LatencyStretch: 0.9, BWFraction: 1, LLCHit: 1, Backpressure: 1}
	if got := CPUFactor(p, r, 0); !(got > 1.0) {
		t.Errorf("factor at stretch 0.9 = %v, want > 1", got)
	}
	// The bonus is bounded.
	r.LatencyStretch = 0.1
	if got := CPUFactor(p, r, 0); got > 1.3 {
		t.Errorf("bonus unbounded: %v", got)
	}
}

func TestCPUFactorPrefetchLossIndependentOfContention(t *testing.T) {
	// The prefetch-off penalty composes multiplicatively with starvation.
	p := MemProfile{PrefetchLoss: 0.4, BWSensitivity: 1}
	starvedOn := CPUFactor(p, Rates{LatencyStretch: 1, BWFraction: 0.5, LLCHit: 1, Backpressure: 1}, 1)
	starvedOff := CPUFactor(p, Rates{LatencyStretch: 1, BWFraction: 0.5, LLCHit: 1, Backpressure: 1}, 0)
	if math.Abs(starvedOff-starvedOn*0.6) > 1e-9 {
		t.Errorf("composition broken: off=%v on=%v", starvedOff, starvedOn)
	}
}

func TestMBAPenalty(t *testing.T) {
	// Unthrottled: no penalty regardless of profile.
	p := MemProfile{BWSensitivity: 1, LLCSensitivity: 1}
	if got := MBAPenalty(p, 1); got != 1 {
		t.Errorf("penalty at 100%% = %v", got)
	}
	// A pure-compute task is unaffected even under deep throttling.
	if got := MBAPenalty(MemProfile{}, 0.1); got != 1 {
		t.Errorf("compute-bound penalty = %v, want 1", got)
	}
	// A fully bandwidth-bound task scales with the throttle.
	if got := MBAPenalty(MemProfile{BWSensitivity: 1}, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("bw-bound penalty at 50%% = %v, want 0.5", got)
	}
	// The paper's criticism: LLC-resident work is throttled too.
	llc := MemProfile{LLCSensitivity: 1}
	if got := MBAPenalty(llc, 0.5); got >= 0.95 {
		t.Errorf("cache-resident penalty at 50%% = %v, want a real slowdown", got)
	}
	// Monotone in the throttle level.
	prev := 0.0
	for _, m := range []float64{0.1, 0.3, 0.6, 1.0} {
		got := MBAPenalty(p, m)
		if got < prev {
			t.Errorf("penalty not monotone at %v: %v < %v", m, got, prev)
		}
		prev = got
	}
	// Extreme throttles are floored, not zero.
	if got := MBAPenalty(p, 0); got <= 0 {
		t.Errorf("penalty at 0 = %v", got)
	}
}

func TestCPUFactorBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := MemProfile{
			LatencySensitivity: rng.Float64(),
			BWSensitivity:      rng.Float64(),
			LLCSensitivity:     rng.Float64(),
			PrefetchLoss:       rng.Float64() * 0.5,
		}
		r := Rates{
			LatencyStretch: 1 + rng.Float64()*10,
			BWFraction:     rng.Float64(),
			LLCHit:         rng.Float64(),
			Backpressure:   0.3 + rng.Float64()*0.7,
		}
		got := CPUFactor(p, r, rng.Float64())
		return got > 0 && got <= 2.0 && !math.IsNaN(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCPUFactorMonotoneInContention(t *testing.T) {
	p := MemProfile{LatencySensitivity: 0.7, BWSensitivity: 0.7, LLCSensitivity: 0.4}
	prev := math.Inf(1)
	for _, sev := range []float64{0, 0.2, 0.5, 0.8} {
		r := Rates{
			LatencyStretch: 1 + sev*6,
			BWFraction:     1 - sev*0.9,
			LLCHit:         1 - sev,
			Backpressure:   1 - sev*0.4,
		}
		got := CPUFactor(p, r, 0.5)
		if got > prev+1e-12 {
			t.Errorf("factor increased with contention at sev=%v: %v > %v", sev, got, prev)
		}
		prev = got
	}
}

// nanOffer returns an Offer with every float64 field, nested ones
// included, set to NaN, found by reflection so a field added later is
// covered too.
func nanOffer() Offer {
	var o Offer
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(math.NaN())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		}
	}
	fill(reflect.ValueOf(&o).Elem())
	return o
}

// TestOfferOverwritesEveryField pins Task.Offer's contract that it
// overwrites every field of its out slot: the node reuses one slot per
// task across ticks, so a branch that leaves a field alone would leak the
// previous tick's value. Every implementation is called in each of its
// branches on a NaN-filled slot, and must produce exactly what the same
// call produces on a zeroed slot (any NaN left behind fails the compare).
func TestOfferOverwritesEveryField(t *testing.T) {
	mem := MemProfile{StreamBWPerCore: 2 * GB, LLCFootprint: 8e6, LLCRefBWPerCore: GB,
		LatencySensitivity: 0.5, BWSensitivity: 0.4, LLCSensitivity: 0.3,
		PrefetchLoss: 0.2, BackpressureSensitivity: 0.6, RemoteFrac: 0.1}
	steady := MustLoop("steady", LoopConfig{Threads: 4, UnitWork: 1, Mem: mem})
	burst := MustLoop("burst", LoopConfig{Threads: 4, UnitWork: 1, Mem: mem,
		BurstPeriod: 0.1, BurstDuty: 0.5, BurstIdleFactor: 0.25})

	cnn1cpu, err := NewCNN1(accel.NewCloudTPU())
	if err != nil {
		t.Fatal(err)
	}
	cnn1accel, err := NewCNN1(accel.NewCloudTPU())
	if err != nil {
		t.Fatal(err)
	}
	for now := 0.0; ; now += 100e-6 {
		if _, kind := cnn1accel.CurrentPhase(); kind == AccelPhase {
			break
		}
		if now > 10 {
			t.Fatal("training never reached its accelerator phase")
		}
		cnn1accel.Advance(now, 100e-6, 1, 8, fullRates())
	}

	idle := newRNN1(t)
	busy := newRNN1(t)
	for now := 0.0; busy.InFlight() == 0; now += 100e-6 {
		if now > 1 {
			t.Fatal("inference never admitted a request")
		}
		busy.Advance(now, 100e-6, 1, 6, fullRates())
	}

	empty := newPipelined(t)
	full := newPipelined(t)
	fast := fullRates()
	fast.CPUFactor = 50
	for now := 0.0; full.Buffered() < 2; now += 100e-6 {
		if now > 1 {
			t.Fatal("pipelined buffer never filled")
		}
		full.Advance(now, 100e-6, 1, 8, fast)
	}

	cases := []struct {
		name       string
		task       Task
		now, cores float64
		active     bool // whether the branch offers cores
	}{
		{"loop/no cores", steady, 0, 0, false},
		{"loop/steady", steady, 0, 2, true},
		{"loop/burst on", burst, 0.01, 2, true},
		{"loop/burst off", burst, 0.06, 2, true},
		{"training/cpu phase", cnn1cpu, 0, 8, true},
		{"training/no cores", cnn1cpu, 0, 0, false},
		{"training/accel phase", cnn1accel, 0, 8, false},
		{"inference/no requests", idle, 0, 6, false},
		{"inference/in flight", busy, 0, 6, true},
		{"inference/no cores", busy, 0, 0, false},
		{"pipelined/empty buffer", empty, 0, 8, true},
		{"pipelined/full buffer", full, 0, 8, false},
		{"pipelined/no cores", empty, 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want Offer
			tc.task.Offer(tc.now, tc.cores, &want)
			if got := want.ActiveCores > 0; got != tc.active {
				t.Fatalf("branch not exercised: offer %+v, want active=%v", want, tc.active)
			}
			got := nanOffer()
			tc.task.Offer(tc.now, tc.cores, &got)
			if got != want {
				t.Fatalf("offer on a NaN-filled slot = %+v, on a zeroed slot = %+v", got, want)
			}
		})
	}
}
