package workload

import (
	"fmt"
	"math"

	"kelp/internal/accel"
	"kelp/internal/metrics"
	"kelp/internal/sim"
)

// PhaseKind classifies a phase of an ML iteration.
type PhaseKind int

// Phase kinds.
const (
	// CPUPhase is host work (infeed, beam search, parameter aggregation).
	CPUPhase PhaseKind = iota
	// AccelPhase is accelerator compute; insensitive to host contention.
	AccelPhase
	// XferPhase is a PCIe transfer; the paper found PCIe unconstraining, so
	// transfers take their unloaded time.
	XferPhase
)

// Phase is one stage of a training step or inference iteration.
type Phase struct {
	Kind PhaseKind
	// CPUWork is core-seconds of host work at full rate (CPUPhase).
	CPUWork float64
	// Parallel is the maximum cores the CPU phase can use.
	Parallel int
	// Mem is the memory behaviour of the CPU phase.
	Mem MemProfile
	// AccelWork is accelerator work units (AccelPhase).
	AccelWork float64
	// Bytes is the transfer size (XferPhase).
	Bytes float64
}

func (p Phase) validate() error {
	switch p.Kind {
	case CPUPhase:
		if p.CPUWork <= 0 || p.Parallel < 1 {
			return fmt.Errorf("workload: CPU phase work=%v parallel=%d", p.CPUWork, p.Parallel)
		}
		return p.Mem.Validate()
	case AccelPhase:
		if p.AccelWork <= 0 {
			return fmt.Errorf("workload: accel phase work=%v", p.AccelWork)
		}
	case XferPhase:
		if p.Bytes <= 0 {
			return fmt.Errorf("workload: xfer phase bytes=%v", p.Bytes)
		}
	default:
		return fmt.Errorf("workload: unknown phase kind %d", p.Kind)
	}
	return nil
}

// Training is a synchronous accelerated training task: each step executes
// its phases in order (the paper's CNN workloads: host infeed or parameter
// aggregation, then accelerator compute). Throughput is steps per second.
type Training struct {
	name     string
	platform accel.Platform
	phases   []Phase

	phase     int
	remaining float64 // core-seconds (CPU) or seconds (accel/xfer)
	steps     metrics.Meter

	recordSteps bool
	stepTimes   []float64
}

// NewTraining builds a training task over the given phases.
func NewTraining(name string, platform accel.Platform, phases []Phase) (*Training, error) {
	if name == "" {
		return nil, fmt.Errorf("workload: empty task name")
	}
	if err := platform.Validate(); err != nil {
		return nil, err
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: %s: no phases", name)
	}
	for i, p := range phases {
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("phase %d: %w", i, err)
		}
	}
	t := &Training{name: name, platform: platform, phases: phases}
	t.enterPhase(0)
	return t, nil
}

// MustTraining is NewTraining that panics on invalid arguments.
func MustTraining(name string, platform accel.Platform, phases []Phase) *Training {
	t, err := NewTraining(name, platform, phases)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Training) enterPhase(i int) {
	t.phase = i
	p := t.phases[i]
	switch p.Kind {
	case CPUPhase:
		t.remaining = p.CPUWork
	case AccelPhase:
		t.remaining = t.platform.ComputeTime(p.AccelWork)
	case XferPhase:
		t.remaining = t.platform.TransferTime(p.Bytes)
	}
}

// Name implements Task.
func (t *Training) Name() string { return t.name }

// Platform returns the accelerator platform the task runs on.
func (t *Training) Platform() accel.Platform { return t.platform }

// CurrentPhase returns the index and kind of the in-progress phase.
func (t *Training) CurrentPhase() (int, PhaseKind) { return t.phase, t.phases[t.phase].Kind }

// Offer implements Task: only CPU phases demand host resources. The offer
// is the current phase's, so it holds until Advance enters a new one.
func (t *Training) Offer(now float64, cores float64, o *Offer) (until float64) {
	p := &t.phases[t.phase]
	if p.Kind != CPUPhase || cores <= 0 {
		*o = Offer{}
		return math.Inf(1)
	}
	o.ActiveCores = min(float64(p.Parallel), cores)
	o.Mem = p.Mem
	return math.Inf(1)
}

// Advance implements Task. A step boundary inside dt rolls leftover time
// into the next phase, so throughput is not quantized by the tick length.
// It reports reoffer whenever it enters a phase. The ticks before the one
// that ends a phase only take their constant bite out of the phase's
// remaining work, so hold folds them into one exact repeated subtraction;
// the tick that ends the phase runs the one-tick body.
func (t *Training) Advance(now, dt float64, n int, cores float64, r *Rates) (ticks int, reoffer bool) {
	for ticks < n {
		k := t.hold(dt, n-ticks, cores, r)
		if ticks += k; ticks == n {
			break
		}
		now = sim.AddN(now, dt, k)
		ticks++
		if t.tick(now, dt, cores, r) {
			return ticks, true
		}
		now += dt
	}
	return ticks, false
}

// hold advances the leading ticks, up to n, that end no phase, and returns
// how many it advanced. Such a tick leaves the phase unchanged and
// subtracts a constant from the remaining work: dt*rate for a CPU phase
// while remaining/rate > dt, dt for the others while remaining > dt. The
// CPU test is monotone in remaining, since rounding a quotient by a
// positive rate is, so it reads remaining > T for the largest T with
// T/rate <= dt.
func (t *Training) hold(dt float64, n int, cores float64, r *Rates) int {
	if !(dt > 1e-15) {
		return n // the tick body does nothing
	}
	if dt > math.MaxFloat64 {
		return 0
	}
	p := &t.phases[t.phase]
	w, bound := dt, dt
	if p.Kind == CPUPhase {
		rate := min(float64(p.Parallel), cores) * r.CPUFactor
		if rate <= 0 {
			return n // starved of cores: no tick makes progress
		}
		if !(rate <= math.MaxFloat64) {
			return 0 // NaN or infinite: leave it to the tick body
		}
		w, bound = dt*rate, maxQuotientAtMost(dt, rate)
	}
	var k int
	t.remaining, k = sim.AddWhile(t.remaining, -w, bound, n)
	return k
}

// maxQuotientAtMost returns the largest float T with T/rate <= dt, for a
// positive finite rate. dt*rate is within a rounding or two of it.
func maxQuotientAtMost(dt, rate float64) float64 {
	t := dt * rate
	for t/rate > dt {
		t = math.Nextafter(t, math.Inf(-1))
	}
	for {
		up := math.Nextafter(t, math.Inf(1))
		if up/rate > dt {
			return t
		}
		t = up
	}
}

// tick is one tick of Advance.
func (t *Training) tick(now, dt float64, cores float64, r *Rates) (reoffer bool) {
	for dt > 1e-15 {
		p := &t.phases[t.phase]
		switch p.Kind {
		case CPUPhase:
			active := min(float64(p.Parallel), cores)
			rate := active * r.CPUFactor // core-seconds of progress per second
			if rate <= 0 {
				return reoffer // starved of cores: no progress this step
			}
			need := t.remaining / rate
			if need > dt {
				t.remaining -= dt * rate
				return reoffer
			}
			dt -= need
		default: // accel and xfer phases advance in wall time
			if t.remaining > dt {
				t.remaining -= dt
				return reoffer
			}
			dt -= t.remaining
		}
		next := t.phase + 1
		if next == len(t.phases) {
			t.steps.Add(now, 1)
			if t.recordSteps {
				t.stepTimes = append(t.stepTimes, now+dt)
			}
			next = 0
		}
		t.enterPhase(next)
		reoffer = true
	}
	return reoffer
}

// RecordStepTimes enables (or disables) per-step completion timestamps,
// used by the cluster package to compose lock-step distributed training.
// Any previously recorded timestamps are discarded.
func (t *Training) RecordStepTimes(on bool) {
	t.recordSteps = on
	t.stepTimes = nil
}

// StepTimes returns recorded step completion timestamps (do not mutate).
func (t *Training) StepTimes() []float64 { return t.stepTimes }

// StartMeasurement implements Task.
func (t *Training) StartMeasurement(now float64) { t.steps.StartMeasurement(now) }

// Throughput implements Task: steps per second.
func (t *Training) Throughput(now float64) float64 { return t.steps.Rate(now) }

// Steps returns the number of completed steps in the measured interval.
func (t *Training) Steps() float64 { return t.steps.Total() }

// StandaloneStepTime returns the uncontended duration of one step, the
// normalization reference for "performance normalized to standalone".
func (t *Training) StandaloneStepTime() float64 {
	var total float64
	for _, p := range t.phases {
		switch p.Kind {
		case CPUPhase:
			// At full rate with prefetchers on, the phase runs slightly
			// faster than 1.0 via the prefetch bonus; standalone reference
			// uses the plain rate, matching how the paper normalizes to a
			// standalone *measured* run (we calibrate in experiments by
			// running standalone anyway; this is a closed-form estimate).
			total += p.CPUWork / float64(p.Parallel)
		case AccelPhase:
			total += t.platform.ComputeTime(p.AccelWork)
		case XferPhase:
			total += t.platform.TransferTime(p.Bytes)
		}
	}
	return total
}

// ScaleCPUWork returns a copy of the task with every CPU phase's work
// multiplied by scale, the lever of the paper's compute/communication
// ratio sweep (§III-B). Accelerator and transfer phases are untouched.
func ScaleCPUWork(t *Training, scale float64) (*Training, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workload: ScaleCPUWork(%v)", scale)
	}
	phases := append([]Phase(nil), t.phases...)
	for i := range phases {
		if phases[i].Kind == CPUPhase {
			phases[i].CPUWork *= scale
		}
	}
	return NewTraining(t.name, t.platform, phases)
}

// HostShare returns the fraction of a standalone step spent on the host —
// the lever that determines contention sensitivity (paper §II-C).
func (t *Training) HostShare() float64 {
	var host float64
	for _, p := range t.phases {
		if p.Kind == CPUPhase {
			host += p.CPUWork / float64(p.Parallel)
		}
	}
	st := t.StandaloneStepTime()
	if st <= 0 {
		return 0
	}
	return host / st
}
