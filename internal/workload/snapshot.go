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
}

// Snapshotter is implemented by tasks that can capture and restore their
// full mutable state — the workload half of the experiments layer's
// warm-started sweep cells (docs/PERFORMANCE.md). TaskSnapshot returns
// (state, false) when the task is not snapshotable in its current
// configuration: a task whose future evolution draws fresh randomness
// (open-loop arrivals with jitter) cannot be resumed reproducibly, because
// engine RNG streams are not serializable.
type Snapshotter interface {
	// TaskSnapshot captures the task's mutable state. The returned value
	// is opaque to callers, immutable, and shareable across restores.
	TaskSnapshot() (any, bool)
	// TaskRestore installs a state captured by TaskSnapshot on a task
	// built from the same configuration.
	TaskRestore(st any) error
}

// loopState is the full mutable state of a Loop.
type loopState struct {
	Partial float64
	Units   metrics.Meter
	Threads int
}

// TaskSnapshot implements Snapshotter.
func (l *Loop) TaskSnapshot() (any, bool) {
	return loopState{Partial: l.partial, Units: l.units, Threads: l.cfg.Threads}, true
}

// TaskRestore implements Snapshotter.
func (l *Loop) TaskRestore(st any) error {
	s, ok := st.(loopState)
	if !ok {
		return fmt.Errorf("workload: %s: bad snapshot type %T", l.name, st)
	}
	l.partial = s.Partial
	l.units = s.Units
	l.cfg.Threads = s.Threads
	return nil
}

// trainingState is the full mutable state of a Training.
type trainingState struct {
	Phase     int
	Remaining float64
	Steps     metrics.Meter
}

// TaskSnapshot implements Snapshotter. Tasks recording per-step timestamps
// (cluster-level lock-step composition) decline: the timestamp slice grows
// without bound and is owned by the cluster layer.
func (t *Training) TaskSnapshot() (any, bool) {
	if t.recordSteps {
		return nil, false
	}
	return trainingState{Phase: t.phase, Remaining: t.remaining, Steps: t.steps}, true
}

// TaskRestore implements Snapshotter.
func (t *Training) TaskRestore(st any) error {
	s, ok := st.(trainingState)
	if !ok {
		return fmt.Errorf("workload: %s: bad snapshot type %T", t.name, st)
	}
	if s.Phase < 0 || s.Phase >= len(t.phases) {
		return fmt.Errorf("workload: %s: snapshot phase %d of %d", t.name, s.Phase, len(t.phases))
	}
	t.phase = s.Phase
	t.remaining = s.Remaining
	t.steps = s.Steps
	return nil
}

// inferenceState is the full mutable state of an Inference server plus its
// device's FIFO occupancy (the device is exclusive to the server, §II-A).
type inferenceState struct {
	NextArrival float64
	Queued      []float64
	Inflight    []request
	Completed   metrics.Meter
	Latency     *metrics.Histogram
	Window      *metrics.Histogram
	Dropped     uint64
	DeviceBusy  float64
}

// TaskSnapshot implements Snapshotter. Only deterministic arrival processes
// are snapshotable: the closed-loop generator never draws randomness, and a
// jitter-free open loop is a fixed schedule. Open-loop servers with arrival
// jitter decline — their rng stream position cannot be captured.
func (s *Inference) TaskSnapshot() (any, bool) {
	if !s.cfg.ClosedLoop && s.cfg.ArrivalJitter != 0 {
		return nil, false
	}
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
	return st, true
}

// TaskRestore implements Snapshotter.
func (s *Inference) TaskRestore(st any) error {
	snap, ok := st.(inferenceState)
	if !ok {
		return fmt.Errorf("workload: %s: bad snapshot type %T", s.name, st)
	}
	if snap.Latency == nil || snap.Window == nil {
		return fmt.Errorf("workload: %s: snapshot has no latency histograms", s.name)
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
	return nil
}
