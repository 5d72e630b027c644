// Package microsim is a request-level discrete-event simulation of a single
// memory controller: generators emit individual requests, the controller
// services them one at a time, and queueing delay, achieved bandwidth,
// distress duty and priority effects emerge from the event dynamics rather
// than being modeled.
//
// Its purpose is validation: the fluid model in internal/memsys summarizes
// controller behaviour with closed-form curves (latency vs utilization,
// proportional sharing, strict priority under fine-grained QoS, distress
// above a utilization threshold). The microsimulator reproduces those
// behaviours from first principles. Only this package's own tests run it:
// they check the behaviours and compare its latency inflation with a copy
// of the fluid stretch formula; memsys's tests do not call it yet.
package microsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
)

// Generator emits memory requests.
type Generator struct {
	// Name labels the generator in results.
	Name string
	// Rate is offered bandwidth, bytes/s.
	Rate float64
	// RequestBytes is the size of each request (a cache line burst).
	RequestBytes float64
	// HighPriority marks requests served ahead of low-priority ones when
	// the controller runs in priority mode.
	HighPriority bool
	// Deterministic spaces arrivals evenly instead of exponentially.
	Deterministic bool
}

// Config parameterizes a run.
type Config struct {
	// CapacityBW is the controller's service bandwidth, bytes/s.
	CapacityBW float64
	// Generators offer load.
	Generators []Generator
	// Priority enables strict high-before-low scheduling (the fine-grained
	// QoS mode); off, the queue is FIFO.
	Priority bool
	// DistressQueueDepth is the queue occupancy at which the distress
	// signal asserts (the controller's high-water mark).
	DistressQueueDepth int
	// Duration is simulated seconds.
	Duration float64
	// Seed drives arrival randomness.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.CapacityBW <= 0 {
		return fmt.Errorf("microsim: CapacityBW = %v", c.CapacityBW)
	}
	if len(c.Generators) == 0 {
		return fmt.Errorf("microsim: no generators")
	}
	for i, g := range c.Generators {
		if g.Rate < 0 {
			return fmt.Errorf("microsim: generator %d rate %v", i, g.Rate)
		}
		if g.RequestBytes <= 0 {
			return fmt.Errorf("microsim: generator %d request size %v", i, g.RequestBytes)
		}
	}
	if c.DistressQueueDepth < 1 {
		return fmt.Errorf("microsim: DistressQueueDepth = %d", c.DistressQueueDepth)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("microsim: Duration = %v", c.Duration)
	}
	return nil
}

// GeneratorResult is one generator's measured outcome.
type GeneratorResult struct {
	Name string
	// OfferedBW and AchievedBW in bytes/s.
	OfferedBW, AchievedBW float64
	// MeanLatency and P95Latency are request sojourn times, seconds.
	MeanLatency, P95Latency float64
	// Completed requests.
	Completed int
}

// Result is the run outcome.
type Result struct {
	Generators []GeneratorResult
	// Utilization is total achieved bandwidth over capacity.
	Utilization float64
	// DistressDuty is the fraction of time the queue exceeded the
	// distress depth.
	DistressDuty float64
	// MeanQueueDepth is the time-averaged queue occupancy.
	MeanQueueDepth float64
}

type request struct {
	gen     int
	arrival float64
	hi      bool
}

// arrival event heap.
type event struct {
	at  float64
	gen int
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run executes the event-level simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Arrival schedule.
	arrivals := &eventHeap{}
	heap.Init(arrivals)
	next := func(i int, now float64) {
		g := cfg.Generators[i]
		if g.Rate <= 0 {
			return
		}
		mean := g.RequestBytes / g.Rate
		dt := mean
		if !g.Deterministic {
			dt = rng.ExpFloat64() * mean
		}
		heap.Push(arrivals, event{at: now + dt, gen: i})
	}
	for i := range cfg.Generators {
		next(i, rng.Float64()*1e-7) // desynchronized starts
	}

	var (
		queueHi, queueLo []request
		busyUntil        float64
		inService        *request
		serviceStart     float64

		now          float64
		distressTime float64
		queueArea    float64
		lastEventAt  float64

		latencies = make([][]float64, len(cfg.Generators))
		achieved  = make([]float64, len(cfg.Generators))
		completed = make([]int, len(cfg.Generators))
	)
	serviceTime := func(gen int) float64 {
		return cfg.Generators[gen].RequestBytes / cfg.CapacityBW
	}
	qlen := func() int {
		n := len(queueHi) + len(queueLo)
		if inService != nil {
			n++
		}
		return n
	}
	account := func(to float64) {
		span := to - lastEventAt
		if span > 0 {
			depth := qlen()
			queueArea += float64(depth) * span
			if depth > cfg.DistressQueueDepth {
				distressTime += span
			}
		}
		lastEventAt = to
	}
	startNext := func(at float64) {
		if inService != nil {
			return
		}
		var q *[]request
		if len(queueHi) > 0 && (cfg.Priority || len(queueLo) == 0) {
			q = &queueHi
		} else if len(queueLo) > 0 {
			q = &queueLo
		} else if len(queueHi) > 0 {
			q = &queueHi
		} else {
			return
		}
		r := (*q)[0]
		*q = (*q)[1:]
		inService = &r
		serviceStart = at
		busyUntil = at + serviceTime(r.gen)
		_ = serviceStart
	}

	for now < cfg.Duration {
		// Next event: arrival or service completion.
		nextArrival := -1.0
		if arrivals.Len() > 0 {
			nextArrival = (*arrivals)[0].at
		}
		switch {
		case inService != nil && (nextArrival < 0 || busyUntil <= nextArrival):
			account(busyUntil)
			now = busyUntil
			r := *inService
			inService = nil
			latencies[r.gen] = append(latencies[r.gen], now-r.arrival)
			achieved[r.gen] += cfg.Generators[r.gen].RequestBytes
			completed[r.gen]++
			startNext(now)
		case nextArrival >= 0:
			ev := heap.Pop(arrivals).(event)
			account(ev.at)
			now = ev.at
			g := cfg.Generators[ev.gen]
			r := request{gen: ev.gen, arrival: now, hi: g.HighPriority}
			if cfg.Priority && g.HighPriority {
				queueHi = append(queueHi, r)
			} else {
				queueLo = append(queueLo, r)
			}
			startNext(now)
			next(ev.gen, now)
		default:
			now = cfg.Duration
		}
	}
	account(cfg.Duration)

	res := &Result{
		DistressDuty:   distressTime / cfg.Duration,
		MeanQueueDepth: queueArea / cfg.Duration,
	}
	var total float64
	for i, g := range cfg.Generators {
		gr := GeneratorResult{
			Name:       g.Name,
			OfferedBW:  g.Rate,
			AchievedBW: achieved[i] / cfg.Duration,
			Completed:  completed[i],
		}
		if lats := latencies[i]; len(lats) > 0 {
			var sum float64
			for _, l := range lats {
				sum += l
			}
			gr.MeanLatency = sum / float64(len(lats))
			sorted := append([]float64(nil), lats...)
			sort.Float64s(sorted)
			gr.P95Latency = sorted[int(0.95*float64(len(sorted)))]
		}
		total += gr.AchievedBW
		res.Generators = append(res.Generators, gr)
	}
	res.Utilization = total / cfg.CapacityBW
	return res, nil
}
