package durable

import (
	"encoding/gob"
	"path/filepath"
	"reflect"
	"testing"

	"kelp/internal/accel"
	"kelp/internal/agent"
	"kelp/internal/faults"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// sessionAgent builds a faulted node under policy k running an inference
// server, a training job, a pipelined trainer and a CPU loop, the four task
// kinds, and runs it long enough for every accumulator, controller and
// fault stream to move.
func sessionAgent(tb testing.TB, k policy.Kind, run bool) *agent.Agent {
	tb.Helper()
	opts := policy.DefaultOptions()
	opts.SamplePeriod = 0.02
	a, err := agent.New(agent.Config{
		Node: node.DefaultConfig(), Policy: k, Options: opts,
		Faults: faults.Spec{Seed: 3, Drop: 0.2, Stale: 0.2, NaN: 0.1, Flap: 0.1, ActStick: 0.1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := accel.NewDevice(accel.NewTPU())
	if err != nil {
		tb.Fatal(err)
	}
	rnn, err := workload.NewRNN1(dev, nil)
	if err != nil {
		tb.Fatal(err)
	}
	cnn, err := workload.NewCNN1(accel.NewCloudTPU())
	if err != nil {
		tb.Fatal(err)
	}
	pipe, err := workload.PipelinedCNN1(accel.NewCloudTPU())
	if err != nil {
		tb.Fatal(err)
	}
	stream, err := workload.NewStream(4)
	if err != nil {
		tb.Fatal(err)
	}
	if err := a.AdmitML(rnn, 4); err != nil {
		tb.Fatal(err)
	}
	for _, task := range []workload.Task{cnn, pipe, stream} {
		if err := a.AdmitBatch(task); err != nil {
			tb.Fatal(err)
		}
	}
	if run {
		a.Run(200 * sim.Millisecond)
	}
	return a
}

// fullSessionSnapshot returns a snapshot with every part populated: a node
// carrying all four task state types and a fault injector's state, a Kelp
// runtime, a CoreThrottle throttler and an MBA controller. A live session
// applies only one controller, so the three controller states come from
// three nodes; the result exercises the format, not a restorable session.
// It also returns the Kelp agent the node and runtime states were taken
// from.
func fullSessionSnapshot(tb testing.TB) (*SessionSnapshot, *agent.Agent) {
	tb.Helper()
	kp := sessionAgent(tb, policy.Kelp, true)
	ns := kp.Node().Snapshot()
	return &SessionSnapshot{
		Seq: 9, SimNow: kp.Node().Now(), Recorder: kp.Events().State(), Node: ns,
		Policy: policy.State{
			Runtime:   kp.Applied().State().Runtime,
			Throttler: sessionAgent(tb, policy.CoreThrottle, true).Applied().State().Throttler,
			MBA:       sessionAgent(tb, policy.MBAThrottle, true).Applied().State().MBA,
		},
	}, kp
}

// TestSnapshotTypesExported is the drift guard for the snapshot format:
// gob silently skips unexported fields, so every struct field reachable
// from SessionSnapshot, and from the task states its node snapshot holds
// as `any`, must be exported unless its type carries its own gob hooks.
func TestSnapshotTypesExported(t *testing.T) {
	snap, _ := fullSessionSnapshot(t)
	roots := []reflect.Type{reflect.TypeOf(SessionSnapshot{})}
	taskTypes := map[reflect.Type]bool{}
	for _, st := range snap.Node.Tasks {
		taskTypes[reflect.TypeOf(st)] = true
		roots = append(roots, reflect.TypeOf(st))
	}
	if len(taskTypes) != 4 {
		t.Fatalf("snapshot holds %d task state types, want loop, training, pipelined and inference", len(taskTypes))
	}
	if snap.Node.Faults == nil {
		t.Fatal("snapshot holds no fault injector state")
	}

	encoder := reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if typ.Implements(encoder) || reflect.PointerTo(typ).Implements(encoder) {
			return
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem())
		case reflect.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: gob drops it from snapshots", typ, f.Name)
				}
				walk(f.Type)
			}
		}
	}
	for _, typ := range roots {
		walk(typ)
	}
}

// TestFullSnapshotRestores pins that a snapshot read back from disk
// resumes exactly: the node and Kelp runtime restored from the file onto a
// rebuilt session evolve identically to the session they were taken from.
func TestFullSnapshotRestores(t *testing.T) {
	snap, orig := fullSessionSnapshot(t)
	path := filepath.Join(t.TempDir(), "full.snap")
	if err := WriteSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy.Throttler == nil || got.Policy.MBA == nil ||
		!reflect.DeepEqual(got.Policy.Throttler.History, snap.Policy.Throttler.History) ||
		!reflect.DeepEqual(got.Policy.MBA.History, snap.Policy.MBA.History) {
		t.Error("controller states did not survive the round trip")
	}

	restored := sessionAgent(t, policy.Kelp, false)
	if err := restored.Node().Restore(got.Node); err != nil {
		t.Fatal(err)
	}
	restored.Applied().Runtime.Restore(*got.Policy.Runtime)
	type observed struct {
		Throughput map[string]float64
		Window     any
		History    any
		Faults     map[string]uint64
	}
	observe := func(a *agent.Agent) observed {
		a.Run(100 * sim.Millisecond)
		n := a.Node()
		o := observed{Throughput: map[string]float64{}, Window: n.Monitor().Peek(),
			History: a.Applied().Runtime.History(), Faults: n.Faults().Counts()}
		for _, task := range n.Tasks() {
			o.Throughput[task.Name()] = task.Throughput(n.Now())
		}
		return o
	}
	if want, have := observe(orig), observe(restored); !reflect.DeepEqual(have, want) {
		t.Errorf("restored session diverged:\n got %+v\nwant %+v", have, want)
	}
}
