package node

import (
	"reflect"
	"testing"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
	"kelp/internal/faults"
	"kelp/internal/perfmon"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// nodeStats collects everything a measurement reads from a node: the clock,
// every task's throughput, and the monitor's accumulated window, plus the
// raw accumulators and engine scheduling state behind them, so equivalence
// tests compare bits rather than averages.
type nodeStats struct {
	Now    sim.Time
	Tasks  map[string]float64
	Mon    perfmon.Sample
	MonRaw perfmon.State
	Engine sim.EngineState
}

func statsOf(n *Node) nodeStats {
	st := nodeStats{Now: n.Now(), Tasks: make(map[string]float64)}
	for _, t := range n.Tasks() {
		st.Tasks[t.Name()] = t.Throughput(n.Now())
	}
	st.Mon = n.Monitor().Peek()
	st.MonRaw = n.Monitor().State()
	st.Engine = n.Engine().State()
	return st
}

// TestSnapshotRoundTrip pins the warm-start contract: restoring a
// post-warmup snapshot onto a freshly built identical node and measuring
// produces byte-identical results to measuring on the node that simulated
// the warmup itself.
func TestSnapshotRoundTrip(t *testing.T) {
	warm, measure := 200*sim.Millisecond, 300*sim.Millisecond

	ref := benchNode(t)
	ref.Run(warm)
	snap := ref.Snapshot()
	ref.StartMeasurement()
	ref.Run(measure)
	want := statsOf(ref)

	restored := benchNode(t)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored.StartMeasurement()
	restored.Run(measure)
	if got := statsOf(restored); !reflect.DeepEqual(got, want) {
		t.Errorf("restored node diverged from warmed node:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestSnapshotIsImmutable pins that a snapshot can be restored more than
// once: running the first restored node must not corrupt the snapshot a
// second restore reads.
func TestSnapshotIsImmutable(t *testing.T) {
	src := benchNode(t)
	src.Run(100 * sim.Millisecond)
	snap := src.Snapshot()

	measure := func() nodeStats {
		n := benchNode(t)
		if err := n.Restore(snap); err != nil {
			t.Fatal(err)
		}
		n.StartMeasurement()
		n.Run(200 * sim.Millisecond)
		return statsOf(n)
	}
	a, b := measure(), measure()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("second restore diverged (snapshot mutated by first run):\n got: %+v\nwant: %+v", b, a)
	}
}

// TestSnapshotRestoreRejectsMismatchedTasks pins the shape check: a
// snapshot only installs onto a node carrying the same tasks.
func TestSnapshotRestoreRejectsMismatchedTasks(t *testing.T) {
	src := benchNode(t)
	snap := src.Snapshot()
	if err := MustNew(DefaultConfig()).Restore(snap); err == nil {
		t.Error("restore onto a task-less node accepted")
	}
}

// TestRestoreRejectsMalformedSnapshot pins that a snapshot whose parts do
// not fit the node (as a damaged snapshot file can decode to) is refused
// with an error rather than panicking, so crash recovery can fall back to
// full log replay.
func TestRestoreRejectsMalformedSnapshot(t *testing.T) {
	src := benchNode(t)
	src.Run(50 * sim.Millisecond)
	for _, tc := range []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"fewer names than tasks", func(s *Snapshot) { s.Names = s.Names[:1] }},
		{"no names", func(s *Snapshot) { s.Names = nil }},
		{"more names than tasks", func(s *Snapshot) { s.Names = append(s.Names, "extra") }},
		{"renamed task", func(s *Snapshot) { s.Names[2] = "other" }},
		{"no tasks", func(s *Snapshot) { s.Tasks = nil }},
		{"foreign task state", func(s *Snapshot) { s.Tasks[0] = 42 }},
		{"short monitor table", func(s *Snapshot) { s.Monitor.CtlLat = s.Monitor.CtlLat[:1] }},
		{"short monitor row", func(s *Snapshot) { s.Monitor.CtlBW[0] = nil }},
		{"short prefetch flags", func(s *Snapshot) { s.Prefetch = s.Prefetch[:3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := src.Snapshot()
			tc.mutate(snap)
			if err := benchNode(t).Restore(snap); err == nil {
				t.Error("malformed snapshot accepted")
			}
		})
	}
}

// TestRestoreRejectsMismatchedTaskState pins that a snapshot whose task
// names match but whose task state belongs to another kind of task (here a
// loop's state under a pipelined trainer of the same name) is refused
// rather than panicking.
func TestRestoreRejectsMismatchedTaskState(t *testing.T) {
	build := func(task workload.Task) *Node {
		n := MustNew(DefaultConfig())
		addTask(t, n, task, "g", cgroup.High, []int{0, 1})
		return n
	}
	snap := build(workload.MustLoop("p", workload.LoopConfig{Threads: 2, UnitWork: 1e-3})).Snapshot()
	pipe := must(workload.NewPipelined("p", accel.NewCloudTPU(), 5e-3, 2, workload.MemProfile{}, 1e12, 2))
	if err := build(pipe).Restore(snap); err == nil {
		t.Error("restore of a loop's state onto a pipelined trainer accepted")
	}
}

// TestRestoreRejectsFaultInjectorMismatch pins that a snapshot restores
// only onto a node whose fault injector presence matches the snapshotted
// node's.
func TestRestoreRejectsFaultInjectorMismatch(t *testing.T) {
	faulted := func() *Node {
		n := benchNode(t)
		n.SetFaults(faults.MustInjector(faults.Spec{Seed: 3, Drop: 0.2}))
		return n
	}
	if err := faulted().Restore(benchNode(t).Snapshot()); err == nil {
		t.Error("snapshot without an injector restored onto a faulted node")
	}
	if err := benchNode(t).Restore(faulted().Snapshot()); err == nil {
		t.Error("snapshot with an injector restored onto an unfaulted node")
	}
	if err := faulted().Restore(faulted().Snapshot()); err != nil {
		t.Errorf("faulted snapshot onto a faulted node: %v", err)
	}
}

// taskObservations reads what statsOf does not: each task's own record
// beyond its throughput (tail latency and queues, step timestamps, buffer
// level).
func taskObservations(n *Node) map[string]any {
	out := make(map[string]any)
	for _, task := range n.Tasks() {
		switch x := task.(type) {
		case *workload.Inference:
			out[x.Name()] = []any{x.TailLatency(0.95), x.TaskSnapshot()}
		case *workload.Training:
			out[x.Name()] = x.StepTimes()
		case *workload.Pipelined:
			out[x.Name()] = x.Buffered()
		}
	}
	return out
}

// TestSnapshotRestoresEveryTaskKind pins restored ≡ uninterrupted for
// every kind of task, including the state beyond counters: a jittered
// open-loop server's arrival stream position, a pipelined trainer's
// buffer, and a trainer's recorded step times. A node is snapshotted after
// warmup, runs on and is measured; a fresh node restored from the
// snapshot must measure byte-identically.
func TestSnapshotRestoresEveryTaskKind(t *testing.T) {
	cases := append(tierCases(), tierCase{
		name: "training with step times",
		build: func(t *testing.T, n *Node) {
			cnn := must(workload.NewCNN1(accel.NewCloudTPU()))
			cnn.RecordStepTimes(true)
			addTask(t, n, cnn, "cnn1", cgroup.High, []int{0, 1, 2, 3, 4, 5, 6, 7})
			addTask(t, n, must(workload.NewStitch(0)), "stitch", cgroup.Low, []int{12, 13, 14, 15})
		},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Node {
				n := MustNew(DefaultConfig())
				tc.build(t, n)
				return n
			}
			ref := build()
			ref.Run(150 * sim.Millisecond)
			snap := ref.Snapshot()
			ref.StartMeasurement()
			ref.Run(250 * sim.Millisecond)

			restored := build()
			if err := restored.Restore(snap); err != nil {
				t.Fatal(err)
			}
			restored.StartMeasurement()
			restored.Run(250 * sim.Millisecond)
			if got, want := statsOf(restored), statsOf(ref); !reflect.DeepEqual(got, want) {
				t.Errorf("restored node diverged:\n got: %+v\nwant: %+v", got, want)
			}
			if got, want := taskObservations(restored), taskObservations(ref); !reflect.DeepEqual(got, want) {
				t.Errorf("restored tasks diverged:\n got: %v\nwant: %v", got, want)
			}
		})
	}
}
