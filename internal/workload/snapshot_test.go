package workload

import (
	"bytes"
	"strings"
	"testing"

	"kelp/internal/accel"
)

// snapshotMakers returns constructors for one task of each kind whose state
// a snapshot carries: a bursty loop, a training job recording its step
// times, an open-loop inference server with an arrival stream, and a
// pipelined training job.
func snapshotMakers(t *testing.T) map[string]func() Task {
	t.Helper()
	return map[string]func() Task{
		"loop": func() Task { return burstLoop(t) },
		"training": func() Task {
			tr, err := NewCNN1(accel.NewCloudTPU())
			if err != nil {
				t.Fatal(err)
			}
			tr.RecordStepTimes(true)
			return tr
		},
		"inference": func() Task { return openRNN1(t) },
		"pipelined": func() Task { return newPipelined(t) },
	}
}

// advanceTicks runs k one-tick Advances from now and returns the clock
// after them.
func advanceTicks(task Task, now, dt float64, k int, cores float64, r *Rates) float64 {
	for range k {
		task.Advance(now, dt, 1, cores, r)
		now += dt
	}
	return now
}

// A task restored from a snapshot taken mid-run holds the source's state
// bit for bit and goes on exactly as the source does.
func TestTaskRestoreResumes(t *testing.T) {
	const dt, ticks, cores = 1e-4, 4003, 4
	for name, mk := range snapshotMakers(t) {
		t.Run(name, func(t *testing.T) {
			r := fullRates()
			src := mk()
			fresh := taskBits(t, src)
			now := advanceTicks(src, 0, dt, ticks, cores, r)
			if bytes.Equal(taskBits(t, src), fresh) {
				t.Fatalf("%d ticks left the state unchanged; the check would be vacuous", ticks)
			}
			dst := mk()
			if err := dst.TaskRestore(src.TaskSnapshot()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(taskBits(t, src), taskBits(t, dst)) {
				t.Fatalf("restored state %+v, source %+v", dst.TaskSnapshot(), src.TaskSnapshot())
			}
			advanceTicks(src, now, dt, ticks, cores, r)
			advanceTicks(dst, now, dt, ticks, cores, r)
			if !bytes.Equal(taskBits(t, src), taskBits(t, dst)) {
				t.Fatalf("after %d more ticks: restored %+v, source %+v",
					ticks, dst.TaskSnapshot(), src.TaskSnapshot())
			}
		})
	}
}

// Every task kind refuses another kind's state, naming the state's type,
// and keeps its own state.
func TestTaskRestoreRejectsForeignState(t *testing.T) {
	makers := snapshotMakers(t)
	foreign := map[string]string{
		"loop": "training", "training": "inference", "inference": "pipelined", "pipelined": "loop",
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			task := mk()
			before := taskBits(t, task)
			other := makers[foreign[name]]().TaskSnapshot()
			err := task.TaskRestore(other)
			if err == nil {
				t.Fatalf("%s state accepted", foreign[name])
			}
			if !strings.Contains(err.Error(), "bad snapshot type") {
				t.Errorf("error %q does not name the bad type", err)
			}
			if !bytes.Equal(taskBits(t, task), before) {
				t.Error("failed restore changed the task's state")
			}
		})
	}
}

// checkRestoreRefused fails unless restoring st onto task errors and
// leaves the task's state as it was.
func checkRestoreRefused(t *testing.T, task Task, st any, what string) {
	t.Helper()
	before := taskBits(t, task)
	if err := task.TaskRestore(st); err == nil {
		t.Errorf("%s accepted", what)
	}
	if !bytes.Equal(taskBits(t, task), before) {
		t.Errorf("refused %s changed the task's state", what)
	}
}

// A training state's phase must index one of the task's phases.
func TestTrainingRestoreRejectsBadPhase(t *testing.T) {
	tr, err := NewCNN1(accel.NewCloudTPU())
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []int{-1, len(tr.phases)} {
		st := tr.TaskSnapshot().(trainingState)
		st.Phase = phase
		checkRestoreRefused(t, tr, st, "phase out of range")
	}
}

// Step times are restored only onto a task that records them: a task that
// does not record would otherwise carry times it never appends to.
func TestTrainingRestoreStepTimesNeedRecording(t *testing.T) {
	mk := snapshotMakers(t)["training"]
	src := mk()
	advanceTicks(src, 0, 1e-4, 20000, 4, fullRates())
	st := src.TaskSnapshot()
	if len(st.(trainingState).StepTimes) == 0 {
		t.Fatal("no step completed; the check would be vacuous")
	}
	plain, err := NewCNN1(accel.NewCloudTPU())
	if err != nil {
		t.Fatal(err)
	}
	checkRestoreRefused(t, plain, st, "step times onto a non-recording task")
	if err := mk().TaskRestore(st); err != nil {
		t.Errorf("step times onto a recording task: %v", err)
	}
}

// A pipelined state cannot buffer less than nothing or more than the
// task's capacity.
func TestPipelinedRestoreRejectsBufferOutOfRange(t *testing.T) {
	p := newPipelined(t)
	for _, buffered := range []float64{-1, p.capacity + 1} {
		st := p.TaskSnapshot().(pipelinedState)
		st.Buffered = buffered
		checkRestoreRefused(t, p, st, "buffer level out of range")
	}
}

// A state that has drawn from an arrival-jitter stream cannot restore
// onto a server that has none to seek.
func TestInferenceRestoreRejectsStreamWithoutRNG(t *testing.T) {
	dev, err := accel.NewDevice(accel.NewTPU())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRNN1(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.TaskSnapshot().(inferenceState)
	st.RNGPos = 5
	checkRestoreRefused(t, s, st, "stream position without a stream")
}
