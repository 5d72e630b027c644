package workload

import (
	"fmt"
	"math"

	"kelp/internal/accel"
	"kelp/internal/metrics"
)

// Pipelined is a training task whose host in-feed runs as a producer stage
// overlapping the accelerator's compute — TensorFlow's double-buffered
// input pipeline. Overlap hides host time while the producer keeps up;
// under contention the buffer drains and the accelerator starves, which is
// why the paper still observes host sensitivity on pipelined production
// workloads (and why colocation QoS matters even for well-engineered
// input pipelines).
type Pipelined struct {
	name     string
	platform accel.Platform

	// Producer (host in-feed) parameters.
	cpuWorkPerItem float64 // core-seconds per buffered item
	parallel       int
	mem            MemProfile

	// Consumer (accelerator) parameters.
	accelPerStep float64 // seconds per training step (consumes one item)

	// Buffer of prepared items.
	buffered float64
	capacity float64

	// Producer progress toward the next item, core-seconds.
	partial float64
	// Consumer progress: time remaining on the in-flight step; negative
	// when waiting for an item.
	stepRemaining float64
	running       bool

	steps metrics.Meter
}

// NewPipelined builds a pipelined training task. bufferDepth is the number
// of prepared batches the input pipeline may hold (2 = double buffering).
func NewPipelined(name string, platform accel.Platform, cpuWorkPerItem float64,
	parallel int, mem MemProfile, accelWorkPerStep float64, bufferDepth int) (*Pipelined, error) {
	if name == "" {
		return nil, fmt.Errorf("workload: empty task name")
	}
	if err := platform.Validate(); err != nil {
		return nil, err
	}
	if cpuWorkPerItem <= 0 || parallel < 1 {
		return nil, fmt.Errorf("workload: %s: cpuWork=%v parallel=%d", name, cpuWorkPerItem, parallel)
	}
	if accelWorkPerStep <= 0 {
		return nil, fmt.Errorf("workload: %s: accelWork=%v", name, accelWorkPerStep)
	}
	if bufferDepth < 1 {
		return nil, fmt.Errorf("workload: %s: bufferDepth=%d", name, bufferDepth)
	}
	if err := mem.Validate(); err != nil {
		return nil, err
	}
	return &Pipelined{
		name:           name,
		platform:       platform,
		cpuWorkPerItem: cpuWorkPerItem,
		parallel:       parallel,
		mem:            mem,
		accelPerStep:   platform.ComputeTime(accelWorkPerStep),
		capacity:       float64(bufferDepth),
	}, nil
}

// PipelinedCNN1 is CNN1 with its in-feed double-buffered: identical phase
// work and memory behaviour, overlap instead of serialization.
func PipelinedCNN1(platform accel.Platform) (*Pipelined, error) {
	serial, err := NewCNN1(platform)
	if err != nil {
		return nil, err
	}
	var cpuPhase Phase
	var accelWork float64
	for _, p := range serial.phases {
		switch p.Kind {
		case CPUPhase:
			cpuPhase = p
		case AccelPhase:
			accelWork = p.AccelWork
		}
	}
	return NewPipelined("CNN1-pipelined", platform,
		cpuPhase.CPUWork, cpuPhase.Parallel, cpuPhase.Mem, accelWork, 2)
}

// Name implements Task.
func (p *Pipelined) Name() string { return p.name }

// Buffered returns the current number of prepared items (fractional).
func (p *Pipelined) Buffered() float64 { return p.buffered }

// Offer implements Task: the producer runs whenever the buffer has room,
// so the offer holds until Advance fills or drains a full buffer.
func (p *Pipelined) Offer(now float64, cores float64, o *Offer) (until float64) {
	if p.full() || cores <= 0 {
		*o = Offer{}
		return math.Inf(1)
	}
	o.ActiveCores = min(float64(p.parallel), cores)
	o.Mem = p.mem
	return math.Inf(1)
}

func (p *Pipelined) full() bool { return p.buffered >= p.capacity }

// Advance implements Task: producer and consumer progress concurrently,
// one tick at a time. It reports reoffer when the buffer crosses between
// full and not full.
func (p *Pipelined) Advance(now, dt float64, n int, cores float64, r *Rates) (ticks int, reoffer bool) {
	for ticks < n {
		ticks++
		if p.tick(now, dt, cores, r) {
			return ticks, true
		}
		now += dt
	}
	return ticks, false
}

// tick is one tick of Advance.
func (p *Pipelined) tick(now, dt float64, cores float64, r *Rates) (reoffer bool) {
	wasFull := p.full()
	// Producer: prepare items while the buffer has room.
	if p.buffered < p.capacity && cores > 0 {
		active := min(float64(p.parallel), cores)
		p.partial += dt * active * r.CPUFactor
		for p.partial >= p.cpuWorkPerItem && p.buffered < p.capacity {
			p.partial -= p.cpuWorkPerItem
			p.buffered++
		}
		if p.buffered >= p.capacity {
			// A full buffer pauses the producer; drop fractional progress
			// beyond one item to keep the buffer bounded.
			if p.partial > p.cpuWorkPerItem {
				p.partial = p.cpuWorkPerItem
			}
		}
	}

	// Consumer: the accelerator consumes one item per step.
	remaining := dt
	for remaining > 1e-15 {
		if !p.running {
			if p.buffered < 1 {
				break // starved: accelerator idles
			}
			p.buffered--
			p.stepRemaining = p.accelPerStep
			p.running = true
		}
		if p.stepRemaining > remaining {
			p.stepRemaining -= remaining
			remaining = 0
			break
		}
		remaining -= p.stepRemaining
		p.running = false
		p.steps.Add(now+dt-remaining, 1)
	}
	return p.full() != wasFull
}

// StartMeasurement implements Task.
func (p *Pipelined) StartMeasurement(now float64) { p.steps.StartMeasurement(now) }

// Throughput implements Task: steps per second.
func (p *Pipelined) Throughput(now float64) float64 { return p.steps.Rate(now) }

// Steps returns completed steps in the measured interval.
func (p *Pipelined) Steps() float64 { return p.steps.Total() }

// StandaloneThroughput returns the uncontended rate: the slower of the
// producer (parallel cores over core-seconds per item) and the accelerator.
func (p *Pipelined) StandaloneThroughput() float64 {
	producerRate := float64(p.parallel) / p.cpuWorkPerItem
	consumerRate := 1 / p.accelPerStep
	return math.Min(producerRate, consumerRate)
}
