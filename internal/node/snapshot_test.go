package node

import (
	"reflect"
	"testing"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
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
	snap, ok := ref.Snapshot()
	if !ok {
		t.Fatal("benchNode's tasks should all be snapshotable")
	}
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
	snap, ok := src.Snapshot()
	if !ok {
		t.Fatal("snapshot declined")
	}

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
	snap, ok := src.Snapshot()
	if !ok {
		t.Fatal("snapshot declined")
	}
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
			snap, ok := src.Snapshot()
			if !ok {
				t.Fatal("snapshot declined")
			}
			tc.mutate(snap)
			if err := benchNode(t).Restore(snap); err == nil {
				t.Error("malformed snapshot accepted")
			}
		})
	}
}

// TestRestoreRejectsNonSnapshotterTask pins that a snapshot whose task
// names match a node holding a task that cannot restore state (here a
// pipelined trainer under a loop's name) is refused rather than panicking.
func TestRestoreRejectsNonSnapshotterTask(t *testing.T) {
	build := func(task workload.Task) *Node {
		n := MustNew(DefaultConfig())
		if _, err := n.Cgroups().Create("g", cgroup.High); err != nil {
			t.Fatal(err)
		}
		if err := n.Cgroups().SetCPUs("g", []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := n.AddTask(task, "g"); err != nil {
			t.Fatal(err)
		}
		return n
	}
	loop := workload.MustLoop("p", workload.LoopConfig{Threads: 2, UnitWork: 1e-3})
	snap, ok := build(loop).Snapshot()
	if !ok {
		t.Fatal("snapshot declined")
	}
	pipe, err := workload.NewPipelined("p", accel.NewCloudTPU(), 5e-3, 2, workload.MemProfile{}, 1e12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := build(pipe).Restore(snap); err == nil {
		t.Error("restore onto a task without snapshot support accepted")
	}
}

// TestSnapshotDeclinesJitteredOpenLoop pins the eligibility rule: an
// open-loop server with arrival jitter consumes engine randomness whose
// stream position a snapshot cannot capture, so the node must refuse to
// snapshot rather than restore into a diverging run.
func TestSnapshotDeclinesJitteredOpenLoop(t *testing.T) {
	n := MustNew(DefaultConfig())
	if _, err := n.Cgroups().Create("g", cgroup.High); err != nil {
		t.Fatal(err)
	}
	if err := n.Cgroups().SetCPUs("g", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	dev, err := accel.NewDevice(accel.NewTPU())
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.InferenceConfig{
		TargetQPS:            100,
		MaxConcurrency:       4,
		IterationsPerRequest: 1,
		CPUWorkPerIter:       1e-3,
		XferBytes:            64 << 10,
		AccelWorkPerIter:     1e9,
		ArrivalJitter:        0.3,
		Mem:                  workload.MemProfile{StreamBWPerCore: workload.GB},
	}
	inf, err := workload.NewInference("jitter", dev, cfg, n.Engine().RNG().Stream("jitter"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddTask(inf, "g"); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Snapshot(); ok {
		t.Error("node with a jittered open-loop server must decline to snapshot")
	}
}
