package durable

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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

// walkSnapshotTypes visits, depth first in field order, every type gob
// can see from SessionSnapshot and from the task states its node snapshot
// holds as `any` (taken from a full snapshot, in type-name order). A type
// that carries its own gob hooks is visited as one: gob encodes what its
// GobEncode writes, not its fields, so only the types of its exported
// fields, which its wire struct carries too, are walked further.
func walkSnapshotTypes(t *testing.T, visit func(typ reflect.Type, gobEncoder bool)) {
	t.Helper()
	snap, _ := fullSessionSnapshot(t)
	taskTypes := map[reflect.Type]bool{}
	var tasks []reflect.Type
	for _, st := range snap.Node.Tasks {
		if typ := reflect.TypeOf(st); !taskTypes[typ] {
			taskTypes[typ] = true
			tasks = append(tasks, typ)
		}
	}
	if len(tasks) != 4 {
		t.Fatalf("snapshot holds %d task state types, want loop, training, pipelined and inference", len(tasks))
	}
	if snap.Node.Faults == nil {
		t.Fatal("snapshot holds no fault injector state")
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].String() < tasks[j].String() })

	encoder := reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if typ.Kind() != reflect.Pointer && (typ.Implements(encoder) || reflect.PointerTo(typ).Implements(encoder)) {
			visit(typ, true)
			if typ.Kind() == reflect.Struct {
				for i := 0; i < typ.NumField(); i++ {
					if f := typ.Field(i); f.IsExported() {
						walk(f.Type)
					}
				}
			}
			return
		}
		visit(typ, false)
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem())
		case reflect.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		}
	}
	for _, typ := range append([]reflect.Type{reflect.TypeOf(SessionSnapshot{})}, tasks...) {
		walk(typ)
	}
}

// TestSnapshotTypesExported is the drift guard for the snapshot format:
// gob silently skips unexported fields, so every struct field reachable
// from SessionSnapshot, and from the task states its node snapshot holds
// as `any`, must be exported unless its type carries its own gob hooks.
func TestSnapshotTypesExported(t *testing.T) {
	walkSnapshotTypes(t, func(typ reflect.Type, gobEncoder bool) {
		if gobEncoder || typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); !f.IsExported() {
				t.Errorf("%s.%s is unexported: gob drops it from snapshots", typ, f.Name)
			}
		}
	})
}

// snapshotFingerprints pins, for each snapshot magic, the SHA-256 of the
// snapshot format's rendering (see renderSnapshotFormat). A change to the
// rendering is a change to what a snapshot file holds, so it must come
// with a new snapMagic and a new entry here.
var snapshotFingerprints = map[string]string{
	"KELPSNP4": "d1f54d86d66fa2d62ce28b7dddcfa18e639fc99ccae062d14eeab6fbb3334dab",
}

// TestSnapshotFormatFingerprint fails when the gob-visible type graph of a
// snapshot changes while snapMagic stays the same, so an old file is never
// decoded under a format it was not written in.
func TestSnapshotFormatFingerprint(t *testing.T) {
	text := renderSnapshotFormat(t)
	sum := fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
	want, ok := snapshotFingerprints[snapMagic]
	switch {
	case !ok:
		t.Errorf("no fingerprint pinned for snapshot magic %s: pin %s", snapMagic, sum)
	case sum != want:
		t.Errorf("the snapshot format changed (fingerprint %s, pinned %s) but snapMagic is still %s: "+
			"bump the magic and pin the new fingerprint under it", sum, want, snapMagic)
	}
	if t.Failed() {
		t.Logf("snapshot format:\n%s", text)
	}
}

// renderSnapshotFormat renders the snapshot format canonically, one type
// per line in walkSnapshotTypes's order: the type and its kind, then each
// exported struct field (name and type) in order. A type with its own gob
// hooks is rendered as the wire struct its GobEncode encodes, read from its
// package's source, tags included.
func renderSnapshotFormat(t *testing.T) string {
	var b strings.Builder
	encoders := 0
	walkSnapshotTypes(t, func(typ reflect.Type, gobEncoder bool) {
		fmt.Fprintf(&b, "%s %s", typ, typ.Kind())
		if gobEncoder {
			encoders++
			fmt.Fprintf(&b, " gob %s\n", gobWireStruct(t, typ))
			return
		}
		b.WriteString("\n")
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&b, "\t%s %s\n", f.Name, f.Type)
			}
		}
	})
	// Meter, Histogram, Guard, Resolution and RecorderState.
	if encoders != 5 {
		t.Errorf("snapshot holds %d types with their own gob hooks, want 5", encoders)
	}
	return b.String()
}

// gobWireStruct returns the source of the struct typ's GobEncode encodes:
// the struct type of the first composite literal in its body that names a
// struct type of the same package (a wire mirror), or typ's own struct
// when there is none (a hook that encodes the value itself, as JSON).
// Types from kelp/internal/<pkg> are read from ../<pkg>.
func gobWireStruct(t *testing.T, typ reflect.Type) string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("..", path.Base(typ.PkgPath()), "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]*ast.StructType{}
	var encode *ast.FuncDecl
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							structs[ts.Name.Name] = st
						}
					}
				}
			case *ast.FuncDecl:
				if d.Name.Name == "GobEncode" && d.Recv != nil && receiverName(d) == typ.Name() {
					encode = d
				}
			}
		}
	}
	if encode == nil {
		t.Fatalf("%s: no GobEncode method in %s", typ, filepath.Dir(files[0]))
	}
	wire := typ.Name()
	ast.Inspect(encode.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok && wire == typ.Name() {
			if id, ok := lit.Type.(*ast.Ident); ok && structs[id.Name] != nil {
				wire = id.Name
			}
		}
		return true
	})
	st := structs[wire]
	if st == nil {
		t.Fatalf("%s: no struct type %s in its package", typ, wire)
	}
	var fields []string
	for _, f := range st.Fields.List {
		var names []string
		for _, id := range f.Names {
			names = append(names, id.Name)
		}
		field := strings.Join(names, ", ") + " " + types.ExprString(f.Type)
		if f.Tag != nil {
			field += " " + f.Tag.Value
		}
		fields = append(fields, field)
	}
	return wire + " {" + strings.Join(fields, "; ") + "}"
}

// receiverName returns the name of a method's receiver type, without a
// pointer.
func receiverName(d *ast.FuncDecl) string {
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
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
