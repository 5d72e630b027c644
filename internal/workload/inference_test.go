package workload

import (
	"testing"

	"kelp/internal/accel"
	"kelp/internal/sim"
)

func newRNN1(t *testing.T) *Inference {
	t.Helper()
	dev, err := accel.NewDevice(accel.NewTPU())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRNN1(dev, sim.NewRNG(1).Stream("rnn1"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// openRNN1 is the RNN1 configuration in open-loop mode, for tests of the
// arrival process and admission queue.
func openRNN1(t *testing.T) *Inference {
	t.Helper()
	dev, err := accel.NewDevice(accel.NewTPU())
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewRNN1(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base.Config()
	cfg.ClosedLoop = false
	s, err := NewInference("RNN1-open", dev, cfg, sim.NewRNG(1).Stream("rnn1"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runInference(s *Inference, cores float64, r *Rates, dur float64) float64 {
	now, dt := 0.0, 100e-6
	warm := dur * 0.2
	for now < warm {
		s.Advance(now, dt, cores, r)
		now += dt
	}
	s.StartMeasurement(now)
	for now < dur {
		s.Advance(now, dt, cores, r)
		now += dt
	}
	return now
}

func TestInferenceConfigValidation(t *testing.T) {
	dev, _ := accel.NewDevice(accel.NewTPU())
	good := InferenceConfig{
		TargetQPS: 100, MaxConcurrency: 4, IterationsPerRequest: 1,
		CPUWorkPerIter: 1e-3, AccelWorkPerIter: 1e9,
	}
	if _, err := NewInference("x", dev, good, nil); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*InferenceConfig){
		func(c *InferenceConfig) { c.TargetQPS = 0 },
		func(c *InferenceConfig) { c.MaxConcurrency = 0 },
		func(c *InferenceConfig) { c.IterationsPerRequest = 0 },
		func(c *InferenceConfig) { c.CPUWorkPerIter = 0 },
		func(c *InferenceConfig) { c.XferBytes = -1 },
		func(c *InferenceConfig) { c.AccelWorkPerIter = 0 },
		func(c *InferenceConfig) { c.ArrivalJitter = 1 },
		func(c *InferenceConfig) { c.MaxQueue = -1 },
		func(c *InferenceConfig) { c.Mem.RemoteFrac = 2 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if _, err := NewInference("x", dev, c, nil); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewInference("", dev, good, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewInference("x", nil, good, nil); err == nil {
		t.Error("nil device accepted")
	}
	good.ArrivalJitter = 0.3
	if _, err := NewInference("x", dev, good, nil); err == nil {
		t.Error("jitter without rng accepted")
	}
}

func TestInferenceMeetsTargetQPSUncontended(t *testing.T) {
	s := openRNN1(t)
	now := runInference(s, 6, fullRates(), 10.0)
	qps := s.Throughput(now)
	target := s.Config().TargetQPS
	if qps < target*0.95 {
		t.Errorf("uncontended QPS = %v, want >= 95%% of target %v", qps, target)
	}
	if s.Dropped() > 0 {
		t.Errorf("dropped %d requests uncontended", s.Dropped())
	}
	// Tail should be close to the standalone request time (some queueing at
	// the knee is expected).
	tail := s.TailLatency(0.95)
	base := s.StandaloneRequestTime()
	if tail < base {
		t.Errorf("tail %v below standalone service time %v", tail, base)
	}
	if tail > base*4 {
		t.Errorf("uncontended tail %v too far above standalone %v", tail, base)
	}
}

func TestClosedLoopSaturatesPipeline(t *testing.T) {
	s := newRNN1(t)
	if !s.Config().ClosedLoop {
		t.Fatal("RNN1 should run closed-loop (pipelined generation)")
	}
	now := runInference(s, 6, fullRates(), 8.0)
	qps := s.Throughput(now)
	// Closed loop runs at the knee: throughput near the binding stage's
	// capacity (accelerator: 2 x 1.2 ms per request -> ~416/s).
	if qps < 300 || qps > 450 {
		t.Errorf("closed-loop QPS = %v, want near stage capacity", qps)
	}
	if s.InFlight() != s.Config().MaxConcurrency {
		t.Errorf("in flight = %d, want pipeline full at %d", s.InFlight(), s.Config().MaxConcurrency)
	}
}

func TestClosedLoopDegradesSmoothly(t *testing.T) {
	// QPS under closed loop tracks the CPU factor continuously instead of
	// cliff-dropping — the smooth curves of the paper's Fig. 10.
	var prev float64
	for i, factor := range []float64{1.0, 0.8, 0.6, 0.4} {
		s := newRNN1(t)
		r := fullRates()
		r.CPUFactor = factor
		// 2 beam cores, as deployed: the CPU stage sits at the knee, so any
		// CPU-factor loss moves throughput.
		now := runInference(s, 2, r, 6.0)
		qps := s.Throughput(now)
		if i > 0 && !(qps < prev) {
			t.Errorf("QPS %v at factor %v, want below %v", qps, factor, prev)
		}
		prev = qps
	}
}

func TestInferenceDegradesUnderLowCPUFactor(t *testing.T) {
	fast := openRNN1(t)
	nowF := runInference(fast, 6, fullRates(), 8.0)
	slow := openRNN1(t)
	r := fullRates()
	r.CPUFactor = 0.1
	nowS := runInference(slow, 2, r, 8.0)

	qf, qs := fast.Throughput(nowF), slow.Throughput(nowS)
	if !(qs < qf*0.95) {
		t.Errorf("QPS under contention %v, want below %v", qs, qf)
	}
	tf, ts := fast.TailLatency(0.95), slow.TailLatency(0.95)
	if !(ts > tf*1.1) {
		t.Errorf("tail under contention %v, want above %v", ts, tf)
	}
}

func TestInferenceQueueBounded(t *testing.T) {
	s := openRNN1(t)
	r := fullRates()
	r.CPUFactor = 0.05 // extreme starvation
	runInference(s, 2, r, 5.0)
	if got, cap := s.QueueDepth(), s.Config().maxQueue(); got > cap {
		t.Errorf("queue depth %d exceeds cap %d", got, cap)
	}
	if s.Dropped() == 0 {
		t.Error("extreme overload should drop requests")
	}
}

func TestInferenceZeroCoresMakesNoProgress(t *testing.T) {
	s := newRNN1(t)
	now, dt := 0.0, 1e-3
	for now < 1.0 {
		s.Advance(now, dt, 0, fullRates())
		now += dt
	}
	if s.Completed() != 0 {
		t.Errorf("completed %v requests with zero cores", s.Completed())
	}
	if s.InFlight() == 0 {
		t.Error("requests should be admitted and stuck in CPU phase")
	}
}

func TestInferenceOfferTracksCPUPhases(t *testing.T) {
	s := newRNN1(t)
	if got := offerOf(s, 0, 8); got.ActiveCores != 0 {
		t.Errorf("offer before any arrivals = %+v", got)
	}
	now, dt := 0.0, 100e-6
	for i := 0; i < 200; i++ {
		s.Advance(now, dt, 6, fullRates())
		now += dt
	}
	off := offerOf(s, now, 6)
	if off.ActiveCores < 0 || off.ActiveCores > 6 {
		t.Errorf("offer out of range: %+v", off)
	}
}

func TestInferenceDeterministicWithSeed(t *testing.T) {
	run := func() (float64, float64) {
		dev, _ := accel.NewDevice(accel.NewTPU())
		s, _ := NewRNN1(dev, sim.NewRNG(42).Stream("rnn1"))
		now := runInference(s, 6, fullRates(), 4.0)
		return s.Throughput(now), s.TailLatency(0.95)
	}
	q1, t1 := run()
	q2, t2 := run()
	if q1 != q2 || t1 != t2 {
		t.Errorf("runs diverged: (%v,%v) vs (%v,%v)", q1, t1, q2, t2)
	}
}

func TestMaxQueueDefault(t *testing.T) {
	c := InferenceConfig{MaxConcurrency: 8}
	if got := c.maxQueue(); got != 32 {
		t.Errorf("default maxQueue = %d, want 32", got)
	}
	c.MaxQueue = 5
	if got := c.maxQueue(); got != 5 {
		t.Errorf("explicit maxQueue = %d", got)
	}
}

// TestTaskRestoreRejectsMissingHistograms pins that an inference state
// without its latency histograms (as a damaged snapshot file can decode
// to) is refused at restore, not left to panic on the next completion.
func TestTaskRestoreRejectsMissingHistograms(t *testing.T) {
	s := newRNN1(t)
	st := s.TaskSnapshot()
	for _, mutate := range []func(*inferenceState){
		func(st *inferenceState) { st.Latency = nil },
		func(st *inferenceState) { st.Window = nil },
	} {
		bad := st.(inferenceState)
		mutate(&bad)
		if err := newRNN1(t).TaskRestore(bad); err == nil {
			t.Error("state without histograms accepted")
		}
	}
}

// TestInferenceAdvanceAllocs pins the allocation-free inference tick: once
// its slices have grown to their steady size, Advance allocates nothing,
// on ticks that admit, finish and drop requests alike. The measured ticks
// must finish requests, or the test would miss the finishing path.
func TestInferenceAdvanceAllocs(t *testing.T) {
	starved := fullRates()
	starved.CPUFactor = 0.05
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *Inference
		cores float64
		r     *Rates
	}{
		{"closed loop", newRNN1, 4, fullRates()},
		{"open loop", openRNN1, 4, fullRates()},
		{"overloaded", openRNN1, 2, starved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			now, dt := 0.0, 100e-6
			tick := func() {
				s.Advance(now, dt, tc.cores, tc.r)
				now += dt
			}
			for range 30000 {
				tick()
			}
			s.StartMeasurement(now)
			// AllocsPerRun rounds its average down, so each run is a
			// 1000-tick batch: one allocation in it shows.
			batch := func() {
				for range 1000 {
					tick()
				}
			}
			if avg := testing.AllocsPerRun(20, batch); avg != 0 {
				t.Errorf("steady Advance allocates %v times per 1000 ticks, want 0", avg)
			}
			if s.Completed() == 0 {
				t.Error("no request finished during the measured ticks")
			}
		})
	}
}
