package workload

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"kelp/internal/accel"
	"kelp/internal/sim"
)

// taskBits gob-encodes a task's snapshot, which moves every float by bit
// pattern.
func taskBits(t *testing.T, task Task) []byte {
	t.Helper()
	st := task.TaskSnapshot()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tickRun is Advance's contract spelled out: one-tick calls, the i-th at
// now advanced by i repeated adds of dt, up to n of them, stopping after
// the first that reports reoffer. A Training's one-tick Advance folds too,
// and an Inference's takes a quiet tick request by request, so for those
// the reference tick is their unfolded tick body.
func tickRun(task Task, now, dt float64, n int, cores float64, r *Rates) (int, bool) {
	tick := func(now float64) bool {
		_, reoffer := task.Advance(now, dt, 1, cores, r)
		return reoffer
	}
	switch tt := task.(type) {
	case *Training:
		tick = func(now float64) bool { return tt.tick(now, dt, cores, r) }
	case *Inference:
		tick = func(now float64) bool { return tt.tick(now, dt, cores, r) }
	}
	for k := 1; k <= n; k++ {
		if tick(now) {
			return k, true
		}
		now += dt
	}
	return max(n, 0), false
}

// checkRuns builds two tasks with mk and drives them through the same
// series of runs, of the lengths in ns in turn, one with a single n-tick
// Advance per run and one tick by tick (tickRun). It fails unless every run
// returns the same ticks and reoffer and leaves both tasks' snapshots, and
// a Training's recorded step times, bit-identical.
func checkRuns(t *testing.T, mk func() Task, now, dt float64, ns []int, runs int, cores float64, r *Rates) {
	t.Helper()
	whole, ticked := mk(), mk()
	for i := range runs {
		n := ns[i%len(ns)]
		gotTicks, gotRe := whole.Advance(now, dt, n, cores, r)
		wantTicks, wantRe := tickRun(ticked, now, dt, n, cores, r)
		if gotTicks != wantTicks || gotRe != wantRe {
			t.Fatalf("%s run %d (n=%d cores=%v cpu=%v): Advance = %d, %v; one tick at a time %d, %v",
				whole.Name(), i, n, cores, r.CPUFactor, gotTicks, gotRe, wantTicks, wantRe)
		}
		if !bytes.Equal(taskBits(t, whole), taskBits(t, ticked)) {
			t.Fatalf("%s run %d (n=%d cores=%v cpu=%v): state %+v, one tick at a time %+v",
				whole.Name(), i, n, cores, r.CPUFactor, whole.TaskSnapshot(), ticked.TaskSnapshot())
		}
		if tw, ok := whole.(*Training); ok {
			a, b := tw.StepTimes(), ticked.(*Training).StepTimes()
			for j := range max(len(a), len(b)) {
				if j >= len(a) || j >= len(b) || math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("%s run %d: step times %v, one tick at a time %v", whole.Name(), i, a, b)
				}
			}
		}
		now = sim.AddN(now, dt, gotTicks)
	}
}

// trainingMakers returns constructors for the training tasks the run
// checks cover: CNN1, CNN2, CNN3, and CNN1 with its CPU work scaled down
// and up, each recording step times.
func trainingMakers(t *testing.T) map[string]func() Task {
	t.Helper()
	must := func(tr *Training, err error) *Training {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		tr.RecordStepTimes(true)
		return tr
	}
	return map[string]func() Task{
		"CNN1": func() Task { return must(NewCNN1(accel.NewCloudTPU())) },
		"CNN2": func() Task { return must(NewCNN2(accel.NewCloudTPU())) },
		"CNN3": func() Task { return must(NewCNN3(accel.NewGPU())) },
		"CNN1x0.1": func() Task {
			return must(ScaleCPUWork(must(NewCNN1(accel.NewCloudTPU())), 0.1))
		},
		"CNN1x7.3": func() Task {
			return must(ScaleCPUWork(must(NewCNN1(accel.NewCloudTPU())), 7.3))
		},
	}
}

// runCPUFactors spans execution factors from none through vanishing to
// extreme.
var runCPUFactors = []float64{0, 1e-300, 0.013, 0.5, 1, 1.45, 1e6, 1e300}

// One n-tick Advance must equal n one-tick calls bit for bit, for every
// task kind that can report reoffer: Training (whose phase ticks fold),
// open-loop Inference with arrival jitter, closed-loop Inference, and
// Pipelined, over zero, fractional and whole cores.
func TestAdvanceRunMatchesTicks(t *testing.T) {
	ns := []int{1, 2, 7, 55, 1000, 3}
	for name, mk := range trainingMakers(t) {
		t.Run(name, func(t *testing.T) {
			for _, cores := range []float64{0, 0.25, 1.7, 8, 64} {
				for _, cpu := range runCPUFactors {
					r := fullRates()
					r.CPUFactor = cpu
					checkRuns(t, mk, 1.25, 1e-4, ns, 30, cores, r)
				}
			}
		})
	}
	others := map[string]func() Task{
		"open-loop": func() Task {
			dev, err := accel.NewDevice(accel.NewTPU())
			if err != nil {
				t.Fatal(err)
			}
			cfg := InferenceConfig{
				TargetQPS: 900, MaxConcurrency: 4, IterationsPerRequest: 2,
				CPUWorkPerIter: 2.4e-3, XferBytes: 256 << 10, AccelWorkPerIter: 1e-3 * 92e12,
				ArrivalJitter: 0.5, MaxQueue: 6,
			}
			return MustInference("open", dev, cfg, sim.NewRNG(3).Stream("open"))
		},
		"closed-loop": func() Task {
			dev, err := accel.NewDevice(accel.NewTPU())
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewRNN1(dev, sim.NewRNG(3).Stream("rnn1"))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"pipelined": func() Task {
			p, err := PipelinedCNN1(accel.NewCloudTPU())
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, mk := range others {
		t.Run(name, func(t *testing.T) {
			for _, cores := range []float64{0, 0.5, 3, 8} {
				for _, cpu := range []float64{0, 0.013, 0.5, 1, 1.45} {
					r := fullRates()
					r.CPUFactor = cpu
					checkRuns(t, mk, 0, 1e-4, ns, 60, cores, r)
				}
			}
		})
	}
}

// FuzzTrainingAdvance compares one n-tick Training Advance with n one-tick
// calls from fuzzed states (reached by a fuzzed number of one-tick calls),
// work scales, cores, execution factors, clocks and tick lengths.
func FuzzTrainingAdvance(f *testing.F) {
	f.Add(uint8(0), 1.0, 8.0, 1.0, 1.25, 1e-4, uint16(1000), uint16(0))
	f.Add(uint8(1), 0.1, 1.7, 0.013, 0.0, 1e-4, uint16(55), uint16(37))
	f.Add(uint8(2), 7.3, 0.25, 1e300, 3.5e6, 3.7e-5, uint16(2000), uint16(500))
	f.Add(uint8(0), 1.0, 64.0, 1e-300, 1e9, 1e-3, uint16(7), uint16(3))
	f.Fuzz(func(t *testing.T, which uint8, scale, cores, cpu, now, dt float64, n, prefix uint16) {
		// A tick longer than a step runs many phases; keep runs quick.
		if !(dt <= 1e-2) || math.IsNaN(now) || math.IsInf(now, 0) {
			t.Skip()
		}
		ctors := []func(accel.Platform) (*Training, error){NewCNN1, NewCNN2, NewCNN3}
		base, err := ctors[int(which)%len(ctors)](accel.NewCloudTPU())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ScaleCPUWork(base, scale); err != nil {
			t.Skip()
		}
		r := fullRates()
		r.CPUFactor = cpu
		mk := func() Task {
			tr, err := ScaleCPUWork(base, scale)
			if err != nil {
				t.Fatal(err)
			}
			tr.RecordStepTimes(true)
			at := now
			for range int(prefix) % 600 {
				tr.Advance(at, dt, 1, cores, r)
				at += dt
			}
			return tr
		}
		at := now
		for range int(prefix) % 600 {
			at += dt
		}
		checkRuns(t, mk, at, dt, []int{int(n) % 2001, 1, int(n) % 97}, 6, cores, r)
	})
}

// FuzzInferenceAdvance compares one n-tick Inference Advance with n one-tick
// tick bodies from fuzzed states (reached by a fuzzed number of one-tick
// calls): open and closed loop, arrival rates and jitter, pipeline depths,
// cores, execution factors, clocks and tick lengths.
func FuzzInferenceAdvance(f *testing.F) {
	f.Add(false, 900.0, 0.5, uint8(4), 4.0, 1.0, 0.0, 1e-4, uint16(1000), uint16(0))
	f.Add(true, 330.0, 0.0, uint8(8), 3.0, 0.5, 1.25, 1e-4, uint16(55), uint16(37))
	f.Add(false, 2000.0, 0.0, uint8(0), 0.5, 1.45, 3.5, 3.7e-5, uint16(2000), uint16(500))
	f.Add(false, 100.0, 0.9, uint8(15), 0.0, 0.013, 0.0, 1e-3, uint16(7), uint16(3))
	f.Add(true, 1.0, 0.0, uint8(2), 64.0, 1e300, 1e9, 1e-4, uint16(97), uint16(599))
	// A CPU phase whose remaining work reaches exactly zero.
	f.Add(true, 90.0, 0.5, uint8(56), 320.0, 9.0, 42.0, 3.3333333333333335e-05, uint16(960), uint16(33))
	f.Fuzz(func(t *testing.T, closed bool, qps, jitter float64, depth uint8, cores, cpu, now, dt float64, n, prefix uint16) {
		// An open loop's first arrival is at 0, so it catches up from there
		// to now; many arrivals per tick or to catch up are slow.
		if !(dt > 0 && dt <= 1e-2) || math.IsNaN(now) || math.IsInf(now, 0) ||
			!closed && !(qps*dt <= 100 && qps*now <= 1e5) {
			t.Skip()
		}
		cfg := InferenceConfig{
			ClosedLoop: closed, TargetQPS: qps, MaxConcurrency: int(depth)%16 + 1,
			IterationsPerRequest: 2, CPUWorkPerIter: 2.4e-3, XferBytes: 256 << 10,
			AccelWorkPerIter: 1e-3 * 92e12, ArrivalJitter: jitter,
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		r := fullRates()
		r.CPUFactor = cpu
		mk := func() Task {
			dev, err := accel.NewDevice(accel.NewTPU())
			if err != nil {
				t.Fatal(err)
			}
			s := MustInference("fuzz", dev, cfg, sim.NewRNG(7).Stream("fuzz"))
			at := now
			for range int(prefix) % 600 {
				s.Advance(at, dt, 1, cores, r)
				at += dt
			}
			return s
		}
		at := now
		for range int(prefix) % 600 {
			at += dt
		}
		checkRuns(t, mk, at, dt, []int{int(n) % 2001, 1, int(n) % 97}, 6, cores, r)
	})
}

// A Training run folds the ticks whose remaining work is above the phase's
// threshold, so the threshold must be exact: for random rates and tick
// lengths it is the largest T with T/rate <= dt, and a run started at T or
// one float either side of it, in a CPU phase (rate = cores x CPUFactor)
// and in the transfer phase (T = dt), matches one tick at a time.
func TestTrainingHoldThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for range 3000 {
		cores := 0.1 + 2*rng.Float64()
		cpu := math.Ldexp(1+rng.Float64(), rng.Intn(40)-30)
		dt := math.Ldexp(1+rng.Float64(), rng.Intn(20)-20)
		rate := min(2, cores) * cpu // CNN1's CPU phase runs on at most 2 cores
		T := maxQuotientAtMost(dt, rate)
		if !(T/rate <= dt) || math.Nextafter(T, math.Inf(1))/rate <= dt {
			t.Fatalf("maxQuotientAtMost(%v, %v) = %v: not the largest T with T/rate <= dt", dt, rate, T)
		}
		r := fullRates()
		r.CPUFactor = cpu
		for phase, bound := range []float64{T, dt} {
			for _, x := range []float64{math.Nextafter(bound, 0), bound, math.Nextafter(bound, math.Inf(1))} {
				mk := func() Task {
					tr, err := NewCNN1(accel.NewCloudTPU())
					if err != nil {
						t.Fatal(err)
					}
					tr.enterPhase(phase)
					tr.remaining = x
					return tr
				}
				checkRuns(t, mk, 0, dt, []int{3}, 1, cores, r)
			}
		}
	}
}
