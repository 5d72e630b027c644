package workload

import (
	"fmt"
	"math"

	"kelp/internal/accel"
	"kelp/internal/metrics"
	"kelp/internal/sim"
)

// InferenceConfig parameterizes a pipelined inference server (the paper's
// RNN1 on the TPU platform).
type InferenceConfig struct {
	// TargetQPS is the offered load. The paper picks the knee of the
	// throughput/latency curve.
	TargetQPS float64
	// MaxConcurrency caps admitted in-flight requests (the pipeline depth);
	// excess arrivals wait in an admission queue.
	MaxConcurrency int
	// IterationsPerRequest: each query decomposes into this many iterations
	// of CPU -> transfer -> accelerator work (Fig. 3).
	IterationsPerRequest int
	// CPUWorkPerIter is host work per iteration, core-seconds (beam search).
	CPUWorkPerIter float64
	// Mem is the CPU phase's memory behaviour.
	Mem MemProfile
	// XferBytes is the per-iteration PCIe transfer size.
	XferBytes float64
	// AccelWorkPerIter is accelerator work units per iteration.
	AccelWorkPerIter float64
	// ArrivalJitter in [0, 1) randomizes interarrival times by up to that
	// fraction; 0 is a deterministic arrival process.
	ArrivalJitter float64
	// MaxQueue bounds the admission queue; arrivals beyond it are dropped
	// (and counted), so tail latency saturates instead of growing with run
	// length under overload. 0 means 4x MaxConcurrency.
	MaxQueue int
	// ClosedLoop replaces the open arrival process with a pipelined load
	// generator that keeps exactly MaxConcurrency requests in flight — the
	// paper's "parallel and pipelined" generation, which sits at the knee
	// of the throughput/latency curve by construction. TargetQPS and
	// ArrivalJitter are ignored.
	ClosedLoop bool
}

func (c InferenceConfig) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 4 * c.MaxConcurrency
}

// Validate reports whether the configuration is usable.
func (c InferenceConfig) Validate() error {
	switch {
	case c.TargetQPS <= 0 && !c.ClosedLoop:
		return fmt.Errorf("workload: TargetQPS = %v", c.TargetQPS)
	case c.MaxConcurrency < 1:
		return fmt.Errorf("workload: MaxConcurrency = %d", c.MaxConcurrency)
	case c.IterationsPerRequest < 1:
		return fmt.Errorf("workload: IterationsPerRequest = %d", c.IterationsPerRequest)
	case c.CPUWorkPerIter <= 0:
		return fmt.Errorf("workload: CPUWorkPerIter = %v", c.CPUWorkPerIter)
	case c.XferBytes < 0:
		return fmt.Errorf("workload: XferBytes = %v", c.XferBytes)
	case c.AccelWorkPerIter <= 0:
		return fmt.Errorf("workload: AccelWorkPerIter = %v", c.AccelWorkPerIter)
	case c.ArrivalJitter < 0 || c.ArrivalJitter >= 1:
		return fmt.Errorf("workload: ArrivalJitter = %v", c.ArrivalJitter)
	case c.MaxQueue < 0:
		return fmt.Errorf("workload: MaxQueue = %d", c.MaxQueue)
	}
	return c.Mem.Validate()
}

type reqPhase int

const (
	reqCPU reqPhase = iota
	reqXfer
	reqAccel
)

// request is one in-flight query. Its fields are exported because
// inferenceState carries requests, gob-encoded as is, in session snapshots.
type request struct {
	Arrival   float64
	Iter      int
	Phase     reqPhase
	Remaining float64 // core-seconds (CPU) or seconds (xfer)
	AccelDone float64 // absolute finish time when in reqAccel
}

// Inference is a pipelined inference server with an admission queue, an
// accelerator FIFO, and per-request latency accounting. It implements Task.
type Inference struct {
	name   string
	cfg    InferenceConfig
	device *accel.Device
	rng    *sim.Stream

	nextArrival float64
	queued      []float64 // arrival times of requests awaiting admission
	// inflight holds the admitted requests by value, so admitting one
	// reuses the slice's room and never allocates.
	inflight []request

	completed metrics.Meter
	latency   *metrics.Histogram
	// window is a second histogram consumed by feedback controllers
	// (Heracles-style SLO loops) that need recent tail latency rather than
	// the full measured interval.
	window  *metrics.Histogram
	dropped uint64
}

// NewInference builds an inference server on the given device. rng drives
// arrival jitter and may be nil when ArrivalJitter is 0.
func NewInference(name string, device *accel.Device, cfg InferenceConfig, rng *sim.Stream) (*Inference, error) {
	if name == "" {
		return nil, fmt.Errorf("workload: empty task name")
	}
	if device == nil {
		return nil, fmt.Errorf("workload: %s: nil device", name)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArrivalJitter > 0 && rng == nil && !cfg.ClosedLoop {
		return nil, fmt.Errorf("workload: %s: jitter requires an rng", name)
	}
	return &Inference{
		name:    name,
		cfg:     cfg,
		device:  device,
		rng:     rng,
		latency: metrics.NewLatencyHistogram(),
		window:  metrics.NewLatencyHistogram(),
	}, nil
}

// MustInference is NewInference that panics on invalid arguments.
func MustInference(name string, device *accel.Device, cfg InferenceConfig, rng *sim.Stream) *Inference {
	s, err := NewInference(name, device, cfg, rng)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements Task.
func (s *Inference) Name() string { return s.name }

// Config returns the server configuration.
func (s *Inference) Config() InferenceConfig { return s.cfg }

// Offer implements Task: requests currently in their CPU phase occupy cores.
// The offer depends only on how many there are, so it holds until Advance
// changes that count.
func (s *Inference) Offer(now float64, cores float64, o *Offer) (until float64) {
	k := 0
	for i := range s.inflight {
		if s.inflight[i].Phase == reqCPU {
			k++
		}
	}
	if k == 0 || cores <= 0 {
		*o = Offer{}
		return math.Inf(1)
	}
	o.ActiveCores = min(float64(k), cores)
	o.Mem = s.cfg.Mem
	return math.Inf(1)
}

func (s *Inference) interarrival() float64 {
	base := 1 / s.cfg.TargetQPS
	if s.cfg.ArrivalJitter == 0 {
		return base
	}
	// Uniform jitter keeps the mean rate at TargetQPS.
	return base * (1 + s.cfg.ArrivalJitter*(2*s.rng.Float64()-1))
}

// Advance implements Task. It reports reoffer when a tick changed the
// number of requests in their CPU phase. The ticks in which no request
// arrives, is admitted, changes phase or finishes advance request by
// request (quiet); every other tick runs the one-tick body.
func (s *Inference) Advance(now, dt float64, n int, cores float64, r *Rates) (ticks int, reoffer bool) {
	for ticks < n {
		var k int
		if now, k = s.quiet(now, dt, n-ticks, cores, r); ticks+k == n {
			return n, false
		}
		ticks += k + 1
		if s.tick(now, dt, cores, r) {
			return ticks, true
		}
		now += dt
	}
	return ticks, false
}

// quiet advances the leading ticks, up to n, in which no request arrives,
// is admitted, changes phase or finishes, and returns the clock after them
// and how many it advanced. Such a tick only subtracts each CPU-phase
// request's bite, dt*(share*CPUFactor), and each transfer's dt from its
// remaining work, so each request takes its m subtractions in a row, in
// the order the tick body would make them. Rounding a subtraction is
// monotone, so within a phase the request with the least remaining crosses
// zero first: m is found by walking that request's repeated subtractions,
// and the tick ends (the repeated adds of dt) against the earliest
// accelerator finish and the next arrival. A pending closed-loop top-up or
// admission makes the first tick an event.
func (s *Inference) quiet(now, dt float64, n int, cores float64, r *Rates) (float64, int) {
	if len(s.inflight) < s.cfg.MaxConcurrency && (s.cfg.ClosedLoop || len(s.queued) > 0) {
		return now, 0
	}
	k := 0
	cpuMin, xferMin, accelMin := math.Inf(1), math.Inf(1), math.Inf(1)
	for i := range s.inflight {
		q := &s.inflight[i]
		// A NaN is never the least, and never crosses zero either.
		switch q.Phase {
		case reqCPU:
			k++
			if q.Remaining < cpuMin {
				cpuMin = q.Remaining
			}
		case reqXfer:
			if q.Remaining < xferMin {
				xferMin = q.Remaining
			}
		case reqAccel:
			if q.AccelDone < accelMin {
				accelMin = q.AccelDone
			}
		}
	}
	arrival := math.Inf(1)
	if !s.cfg.ClosedLoop {
		arrival = s.nextArrival
	}
	bite := dt * (cpuShare(k, cores) * r.CPUFactor)
	m := 0
	for ; m < n; m++ {
		end := now + dt
		if end >= accelMin || arrival < end {
			break
		}
		if cpuMin -= bite; cpuMin <= 0 {
			break
		}
		if xferMin -= dt; xferMin <= 0 {
			break
		}
		now = end
	}
	if m == 0 {
		return now, 0
	}
	for i := range s.inflight {
		q := &s.inflight[i]
		switch q.Phase {
		case reqCPU:
			x := q.Remaining
			for range m {
				x -= bite
			}
			q.Remaining = x
		case reqXfer:
			x := q.Remaining
			for range m {
				x -= dt
			}
			q.Remaining = x
		}
	}
	return now, m
}

// cpuShare returns the cores' worth each of k CPU-phase requests runs on:
// they share the task's cores equally, and each request's beam search is
// single-threaded, so per-request speed is capped at one core's worth.
func cpuShare(k int, cores float64) float64 {
	switch {
	case cores <= 0:
		return 0
	case k > 0 && cores < float64(k):
		return cores / float64(k)
	}
	return 1
}

// tick is one tick of Advance.
func (s *Inference) tick(now, dt float64, cores float64, r *Rates) (reoffer bool) {
	end := now + dt
	before := len(s.inflight)

	if s.cfg.ClosedLoop {
		// Pipelined generator: top up to MaxConcurrency immediately;
		// latency is pure service time.
		for len(s.inflight) < s.cfg.MaxConcurrency {
			s.inflight = append(s.inflight, request{
				Arrival:   now,
				Phase:     reqCPU,
				Remaining: s.cfg.CPUWorkPerIter,
			})
		}
	} else {
		// 1. Arrivals up to the end of this step; overflow is dropped.
		for s.nextArrival < end {
			if len(s.queued) < s.cfg.maxQueue() {
				s.queued = append(s.queued, s.nextArrival)
			} else {
				s.dropped++
			}
			s.nextArrival += s.interarrival()
		}

		// 2. Admission. Latency is measured from true arrival, so queueing
		// delay under overload shows up in the tail, producing the knee the
		// paper tunes RNN1's offered load to.
		// The queue shifts down in place, so it too reuses its room.
		admit := max(0, min(len(s.queued), s.cfg.MaxConcurrency-len(s.inflight)))
		for _, arr := range s.queued[:admit] {
			s.inflight = append(s.inflight, request{
				Arrival:   arr,
				Phase:     reqCPU,
				Remaining: s.cfg.CPUWorkPerIter,
			})
		}
		if admit > 0 {
			s.queued = s.queued[:copy(s.queued, s.queued[admit:])]
		}
	}

	// 3. Progress.
	k := 0
	for i := range s.inflight {
		if s.inflight[i].Phase == reqCPU {
			k++
		}
	}
	cpuRate := cpuShare(k, cores) * r.CPUFactor
	// Arrivals and admissions only add CPU-phase requests, so the count the
	// last Offer saw is k less the requests this step added.
	offered := k - (len(s.inflight) - before)

	// Finished requests leave in the same pass: the survivors shift down
	// in place, in order. Until a request finishes every survivor is
	// already in its place, so only the ones after it are copied.
	kEnd, kept := 0, 0
	for i := range s.inflight {
		q := &s.inflight[i]
		switch q.Phase {
		case reqCPU:
			q.Remaining -= dt * cpuRate
			if q.Remaining <= 0 {
				q.Phase = reqXfer
				q.Remaining = s.device.Platform.TransferTime(s.cfg.XferBytes)
			}
		case reqXfer:
			q.Remaining -= dt
			if q.Remaining <= 0 {
				q.Phase = reqAccel
				q.AccelDone = s.device.Reserve(end, s.cfg.AccelWorkPerIter)
			}
		case reqAccel:
			if end >= q.AccelDone {
				q.Iter++
				if q.Iter >= s.cfg.IterationsPerRequest {
					s.finish(end, q)
					continue
				}
				q.Phase = reqCPU
				q.Remaining = s.cfg.CPUWorkPerIter
			}
		}
		if q.Phase == reqCPU {
			kEnd++
		}
		if kept != i {
			s.inflight[kept] = *q
		}
		kept++
	}
	s.inflight = s.inflight[:kept]
	return kEnd != offered
}

func (s *Inference) finish(now float64, q *request) {
	s.completed.Add(now, 1)
	s.latency.Observe(now - q.Arrival)
	s.window.Observe(now - q.Arrival)
}

// StartMeasurement implements Task.
func (s *Inference) StartMeasurement(now float64) {
	s.completed.StartMeasurement(now)
	s.latency.Reset()
	s.dropped = 0
}

// WindowTailLatency returns the q-quantile of request latency since the
// previous WindowTailLatency call and resets the window — the read-and-
// reset semantics an SLO feedback controller samples with. Returns 0 when
// no requests completed in the window.
func (s *Inference) WindowTailLatency(q float64) float64 {
	v := s.window.Quantile(q)
	s.window.Reset()
	return v
}

// Throughput implements Task: completed queries per second.
func (s *Inference) Throughput(now float64) float64 { return s.completed.Rate(now) }

// TailLatency returns the q-quantile of request latency (0.95 for the
// paper's 95%-ile plots).
func (s *Inference) TailLatency(q float64) float64 { return s.latency.Quantile(q) }

// Completed returns queries finished in the measured interval.
func (s *Inference) Completed() float64 { return s.completed.Total() }

// PhaseName reports the phase of the oldest in-flight request ("cpu",
// "xfer", "accel") or "idle". With MaxConcurrency 1 this is the serial
// request timeline of the paper's Fig. 3.
func (s *Inference) PhaseName() string {
	if len(s.inflight) == 0 {
		return "idle"
	}
	switch s.inflight[0].Phase {
	case reqCPU:
		return "cpu"
	case reqXfer:
		return "xfer"
	default:
		return "accel"
	}
}
