package workload

import (
	"encoding/gob"
	"fmt"

	"kelp/internal/metrics"
)

// Task snapshot states travel, gob-encoded as is, inside `any` slots of the
// node-level snapshot, so each concrete state type registers under a stable
// wire name. The names are part of the on-disk snapshot format: do not
// rename them.
func init() {
	gob.RegisterName("kelp/workload.loopState", loopState{})
	gob.RegisterName("kelp/workload.trainingState", trainingState{})
	gob.RegisterName("kelp/workload.inferenceState", inferenceState{})
	gob.RegisterName("kelp/workload.pipelinedState", pipelinedState{})
}

// badState is the error for a state of the wrong concrete type.
func badState(name string, st any) error {
	return fmt.Errorf("workload: %s: bad snapshot type %T", name, st)
}

// loopState is the full mutable state of a Loop.
type loopState struct {
	Partial float64
	Units   metrics.Meter
	Threads int
}

// TaskSnapshot implements Task.
func (l *Loop) TaskSnapshot() any {
	return loopState{Partial: l.partial, Units: l.units, Threads: l.cfg.Threads}
}

// TaskRestore implements Task.
func (l *Loop) TaskRestore(st any) error {
	s, ok := st.(loopState)
	if !ok {
		return badState(l.name, st)
	}
	l.partial = s.Partial
	l.units = s.Units
	l.cfg.Threads = s.Threads
	return nil
}

// trainingState is the full mutable state of a Training. StepTimes holds
// the recorded step completions when recording is on (cluster-level
// lock-step composition), and is empty otherwise.
type trainingState struct {
	Phase     int
	Remaining float64
	Steps     metrics.Meter
	StepTimes []float64
}

// TaskSnapshot implements Task.
func (t *Training) TaskSnapshot() any {
	return trainingState{
		Phase:     t.phase,
		Remaining: t.remaining,
		Steps:     t.steps,
		StepTimes: append([]float64(nil), t.stepTimes...),
	}
}

// TaskRestore implements Task. Step recording is configuration, not state:
// a state carrying step times only restores onto a task that records them.
func (t *Training) TaskRestore(st any) error {
	s, ok := st.(trainingState)
	if !ok {
		return badState(t.name, st)
	}
	if s.Phase < 0 || s.Phase >= len(t.phases) {
		return fmt.Errorf("workload: %s: snapshot phase %d of %d", t.name, s.Phase, len(t.phases))
	}
	if len(s.StepTimes) > 0 && !t.recordSteps {
		return fmt.Errorf("workload: %s: snapshot has step times, task does not record them", t.name)
	}
	t.phase = s.Phase
	t.remaining = s.Remaining
	t.steps = s.Steps
	t.stepTimes = append([]float64(nil), s.StepTimes...)
	return nil
}

// pipelinedState is the full mutable state of a Pipelined.
type pipelinedState struct {
	Buffered      float64
	Partial       float64
	StepRemaining float64
	Running       bool
	Steps         metrics.Meter
}

// TaskSnapshot implements Task.
func (p *Pipelined) TaskSnapshot() any {
	return pipelinedState{
		Buffered:      p.buffered,
		Partial:       p.partial,
		StepRemaining: p.stepRemaining,
		Running:       p.running,
		Steps:         p.steps,
	}
}

// TaskRestore implements Task.
func (p *Pipelined) TaskRestore(st any) error {
	s, ok := st.(pipelinedState)
	if !ok {
		return badState(p.name, st)
	}
	if s.Buffered < 0 || s.Buffered > p.capacity {
		return fmt.Errorf("workload: %s: snapshot buffers %v of %v items", p.name, s.Buffered, p.capacity)
	}
	p.buffered = s.Buffered
	p.partial = s.Partial
	p.stepRemaining = s.StepRemaining
	p.running = s.Running
	p.steps = s.Steps
	return nil
}

// inferenceState is the full mutable state of an Inference server plus its
// device's FIFO occupancy (the device is exclusive to the server, §II-A).
// RNGPos is the arrival-jitter stream's position (0 for a server that
// never draws: closed loop, or an open loop without jitter).
type inferenceState struct {
	NextArrival float64
	Queued      []float64
	Inflight    []request
	Completed   metrics.Meter
	Latency     *metrics.Histogram
	Window      *metrics.Histogram
	Dropped     uint64
	DeviceBusy  float64
	RNGPos      uint64
}

// TaskSnapshot implements Task.
func (s *Inference) TaskSnapshot() any {
	st := inferenceState{
		NextArrival: s.nextArrival,
		Queued:      append([]float64(nil), s.queued...),
		Inflight:    make([]request, len(s.inflight)),
		Completed:   s.completed,
		Latency:     s.latency.Clone(),
		Window:      s.window.Clone(),
		Dropped:     s.dropped,
		DeviceBusy:  s.device.BusyUntil(),
	}
	for i, q := range s.inflight {
		st.Inflight[i] = *q
	}
	if s.rng != nil {
		st.RNGPos = s.rng.Pos()
	}
	return st
}

// TaskRestore implements Task.
func (s *Inference) TaskRestore(st any) error {
	snap, ok := st.(inferenceState)
	if !ok {
		return badState(s.name, st)
	}
	if snap.Latency == nil || snap.Window == nil {
		return fmt.Errorf("workload: %s: snapshot has no latency histograms", s.name)
	}
	if s.rng == nil && snap.RNGPos != 0 {
		return fmt.Errorf("workload: %s: snapshot has drawn from a jitter stream, task has none", s.name)
	}
	s.nextArrival = snap.NextArrival
	s.queued = append(s.queued[:0], snap.Queued...)
	s.inflight = s.inflight[:0]
	for i := range snap.Inflight {
		q := snap.Inflight[i]
		s.inflight = append(s.inflight, &q)
	}
	s.completed = snap.Completed
	s.latency = snap.Latency.Clone()
	s.window = snap.Window.Clone()
	s.dropped = snap.Dropped
	s.device.SetBusyUntil(snap.DeviceBusy)
	if s.rng != nil {
		s.rng.Seek(snap.RNGPos)
	}
	return nil
}
