package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestNewEngineRejectsBadStep(t *testing.T) {
	for _, dt := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewEngine(dt, 1); err == nil {
			t.Errorf("NewEngine(%v) succeeded, want error", dt)
		}
	}
}

func TestEngineAdvancesTime(t *testing.T) {
	e := MustEngine(1*Millisecond, 42)
	e.Run(50 * Millisecond)
	if got := e.Now(); math.Abs(got-50*Millisecond) > 1e-9 {
		t.Fatalf("Now() = %v, want 50ms", got)
	}
	if e.steps != 50 {
		t.Fatalf("Steps() = %d, want 50", e.steps)
	}
}

// tickFunc is a Stepper that takes one tick per StepN call and calls f for
// it.
type tickFunc func(now Time)

func (f tickFunc) StepN(now Time, dt Duration, deadline, due Time) int {
	f(now)
	return 1
}

// controlFunc is a Controller that calls f each time it fires.
type controlFunc func(now Time)

func (f controlFunc) Control(now Time) { f(now) }

func TestControllerFiresAtPeriod(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	var fires []float64
	err := e.AddController("c", 10*Millisecond, controlFunc(func(now float64) {
		fires = append(fires, now)
	}))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(35 * Millisecond)
	if len(fires) != 3 {
		t.Fatalf("controller fired %d times (%v), want 3", len(fires), fires)
	}
	for i, want := range []float64{10 * Millisecond, 20 * Millisecond, 30 * Millisecond} {
		if math.Abs(fires[i]-want) > 1e-9 {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want)
		}
	}
}

func TestControllerRejectsBadArgs(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	if err := e.AddController("x", 0, controlFunc(func(float64) {})); err == nil {
		t.Error("zero period accepted")
	}
	if err := e.AddController("x", 1, nil); err == nil {
		t.Error("nil controller accepted")
	}
}

func TestControllerFiresBeforeSteppersOnItsTick(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	var log []string
	e.SetStepper(tickFunc(func(Time) { log = append(log, "step") }))
	if err := e.AddController("c", 2*Millisecond, controlFunc(func(now float64) {
		log = append(log, "ctrl")
	})); err != nil {
		t.Fatal(err)
	}
	e.Run(2*Millisecond + 1*Millisecond)
	// ticks at t=0 (step), t=1ms (step), t=2ms (ctrl, step)
	want := []string{"step", "step", "ctrl", "step"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestRunWhileStopsOnCondition(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	n := 0
	e.SetStepper(tickFunc(func(Time) { n++ }))
	elapsed, done := e.RunWhile(1*Second, func() bool { return n < 7 })
	if !done {
		t.Fatal("RunWhile hit cap, want condition exit")
	}
	if n != 7 {
		t.Fatalf("n = %d, want 7", n)
	}
	if math.Abs(elapsed-7*Millisecond) > 1e-9 {
		t.Fatalf("elapsed = %v, want 7ms", elapsed)
	}
}

func TestRunWhileHonorsCap(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	elapsed, done := e.RunWhile(5*Millisecond, func() bool { return true })
	if done {
		t.Fatal("RunWhile reported done, want cap hit")
	}
	if elapsed < 5*Millisecond-1e-9 {
		t.Fatalf("elapsed = %v, want >= 5ms", elapsed)
	}
}

// TestRunWhileCapMatchesRunUntil pins that a RunWhile stopped by its cap
// takes exactly the ticks RunUntil(now+cap) takes, from a start at zero and
// from one in mid-run, including caps the repeated-add clock lands just
// short of.
func TestRunWhileCapMatchesRunUntil(t *testing.T) {
	for _, tc := range []struct {
		dt, cap, start Duration
	}{
		{100 * Microsecond, 10 * Millisecond, 0},
		{100 * Microsecond, 300 * Millisecond, 0},
		{100 * Microsecond, 1 * Second, 0},
		{DefaultStep, 7 * Millisecond, 3 * Millisecond},
		{1 * Millisecond, 5 * Millisecond, 0},
		{0.3 * Millisecond, 2.1 * Millisecond, 0.9 * Millisecond},
		{10 * Microsecond, 1 * Millisecond, 0},
		{1 * Millisecond, 2.5 * Millisecond, 0},
	} {
		ref := MustEngine(tc.dt, 1)
		ref.Run(tc.start)
		ref.RunUntil(ref.Now() + tc.cap)
		e := MustEngine(tc.dt, 1)
		e.Run(tc.start)
		if _, done := e.RunWhile(tc.cap, func() bool { return true }); done {
			t.Fatalf("dt %v cap %v: RunWhile reported done, want cap hit", tc.dt, tc.cap)
		}
		if e.steps != ref.steps || e.Now() != ref.Now() {
			t.Errorf("dt %v cap %v from %v: RunWhile took %d ticks to %v, RunUntil %d to %v",
				tc.dt, tc.cap, tc.start, e.steps, e.Now(), ref.steps, ref.Now())
		}
	}
}

// TestRunRejectsBadSpans pins the argument checks: Run panics on a
// negative or non-finite span, RunUntil on a non-finite deadline (a
// stepper with nothing due would otherwise never return), and RunWhile on
// a negative or NaN cap.
func TestRunRejectsBadSpans(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, d := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		mustPanic(fmt.Sprintf("Run(%v)", d), func() { e.Run(d) })
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mustPanic(fmt.Sprintf("RunUntil(%v)", d), func() { e.RunUntil(d) })
	}
	for _, d := range []float64{-1, math.NaN()} {
		mustPanic(fmt.Sprintf("RunWhile(%v)", d), func() { e.RunWhile(d, func() bool { return true }) })
	}
	if e.Now() != 0 || e.steps != 0 {
		t.Errorf("rejected runs advanced the engine to %v (%d steps)", e.Now(), e.steps)
	}
	e.Run(3 * Millisecond)
	e.RunUntil(1 * Millisecond)
	if e.steps != 3 {
		t.Errorf("RunUntil into the past ran %d steps, want none", e.steps-3)
	}
}

// traceEntry is one tick or one controller firing, in dispatch order.
type traceEntry struct {
	ctrl bool
	at   Time
}

// batchTracer is a Stepper that logs every tick it advances and takes at
// most max of them per StepN call.
type batchTracer struct {
	trace *[]traceEntry
	max   int
	calls int
}

func (b *batchTracer) StepN(now Time, dt Duration, deadline, due Time) int {
	b.calls++
	ticks := 0
	for {
		*b.trace = append(*b.trace, traceEntry{at: now})
		ticks++
		now += dt
		if ticks == b.max || !(now < deadline-1e-12 && now+1e-12 < due) {
			return ticks
		}
	}
}

// TestRunUntilBatchMatchesTicks pins the engine's side of horizon runs: an
// engine handing a stepper whole runs dispatches the same ticks at the same
// times, interleaved with the same controller firings, as an engine
// advanced one Tick at a time, for runs cut short at any length and for Run
// spans that end between ticks.
func TestRunUntilBatchMatchesTicks(t *testing.T) {
	spans := []Duration{1 * Millisecond, 10.5 * Millisecond, 0, 33 * Millisecond, 0.2 * Millisecond}
	drive := func(max int, runUntil func(e *Engine, deadline Time)) ([]traceEntry, *Engine, *batchTracer) {
		var trace []traceEntry
		e := MustEngine(1*Millisecond, 1)
		bt := &batchTracer{trace: &trace, max: max}
		e.SetStepper(bt)
		for _, period := range []Duration{2.5 * Millisecond, 7 * Millisecond} {
			if err := e.AddController(fmt.Sprint(period), period, controlFunc(func(now Time) {
				trace = append(trace, traceEntry{ctrl: true, at: now})
			})); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range spans {
			runUntil(e, e.Now()+d)
		}
		runUntil(e, e.Now()+61*Millisecond)
		return trace, e, bt
	}
	want, ref, _ := drive(1000, func(e *Engine, deadline Time) {
		for e.Now() < deadline-1e-12 {
			e.Tick()
		}
	})
	for _, max := range []int{1, 3, 1000} {
		got, e, bt := drive(max, (*Engine).RunUntil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("max %d: batched dispatch diverged from per-tick dispatch:\n got: %v\nwant: %v", max, got, want)
		}
		if e.Now() != ref.Now() || e.steps != ref.steps {
			t.Errorf("max %d: engine at %v after %d steps, want %v after %d", max, e.Now(), e.steps, ref.Now(), ref.steps)
		}
		if max > 1 && bt.calls >= int(e.steps) {
			t.Errorf("max %d: %d StepN calls for %d ticks, want batching", max, bt.calls, e.steps)
		}
	}
}

func TestRNGStreamsAreReproducibleAndIndependent(t *testing.T) {
	a1 := NewRNG(7).Stream("alpha")
	a2 := NewRNG(7).Stream("alpha")
	b := NewRNG(7).Stream("beta")
	same, diff := true, false
	for i := 0; i < 32; i++ {
		x, y, z := a1.Float64(), a2.Float64(), b.Float64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("identical (seed, name) streams diverged")
	}
	if !diff {
		t.Error("streams with different names are identical")
	}
}

// TestStreamSeekResumes pins that a stream's position is its draw count:
// a fresh stream of the same (seed, name) sought to Pos continues the
// original's sequence exactly, and seeking backwards rewinds it.
func TestStreamSeekResumes(t *testing.T) {
	a := NewRNG(7).Stream("alpha")
	for i := 0; i < 37; i++ {
		a.Float64()
	}
	pos := a.Pos()
	if pos != 37 {
		t.Fatalf("Pos = %d after 37 Float64 draws", pos)
	}
	want := make([]float64, 50)
	for i := range want {
		want[i] = a.Float64()
	}
	b := NewRNG(7).Stream("alpha")
	b.Seek(pos)
	for i, w := range want {
		if got := b.Float64(); got != w {
			t.Fatalf("draw %d after Seek = %v, want %v", i, got, w)
		}
	}
	a.Seek(pos)
	if got := a.Float64(); got != want[0] {
		t.Errorf("draw after rewinding Seek = %v, want %v", got, want[0])
	}
}

func TestRNGSeedChangesStream(t *testing.T) {
	s1 := NewRNG(1).Stream("x")
	s2 := NewRNG(2).Stream("x")
	equal := true
	for i := 0; i < 32; i++ {
		if s1.Float64() != s2.Float64() {
			equal = false
			break
		}
	}
	if equal {
		t.Error("different seeds produced the same stream")
	}
}

func TestFormatTime(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{5e-6, "5.0µs"},
		{2.5e-3, "2.500ms"},
		{1.25, "1.250s"},
	}
	for _, c := range cases {
		if got := FormatTime(c.in); got != c.want {
			t.Errorf("FormatTime(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := MustEngine(1*Millisecond, 99)
		rng := e.RNG().Stream("load")
		var out []float64
		e.SetStepper(tickFunc(func(Time) {
			out = append(out, rng.Float64())
		}))
		e.Run(10 * Millisecond)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at step %d", i)
		}
	}
}

// An engine restored from a snapshot taken mid-run fires its controllers
// and advances its clock exactly as the source does; one with another
// controller count refuses the snapshot.
func TestEngineStateRestoreResumes(t *testing.T) {
	build := func(fires *[]string) *Engine {
		e := MustEngine(1*Millisecond, 7)
		for _, c := range []struct {
			name   string
			period Duration
		}{{"fast", 3 * Millisecond}, {"slow", 7 * Millisecond}} {
			err := e.AddController(c.name, c.period, controlFunc(func(now Time) {
				*fires = append(*fires, fmt.Sprintf("%s@%s", c.name, FormatTime(now)))
			}))
			if err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	var srcFires, dstFires []string
	src := build(&srcFires)
	if got := src.Step(); got != 1*Millisecond {
		t.Fatalf("Step() = %v, want 1ms", got)
	}
	src.Run(10 * Millisecond)
	st := src.State()
	srcFires = srcFires[:0]

	dst := build(&dstFires)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.State(), st) {
		t.Fatalf("restored state %+v, want %+v", dst.State(), st)
	}
	src.Run(25 * Millisecond)
	dst.Run(25 * Millisecond)
	if len(srcFires) == 0 || !reflect.DeepEqual(dstFires, srcFires) {
		t.Errorf("restored engine fired %v, source %v", dstFires, srcFires)
	}
	if dst.Now() != src.Now() || dst.steps != src.steps {
		t.Errorf("restored engine at %v after %d steps, source at %v after %d", dst.Now(), dst.steps, src.Now(), src.steps)
	}

	other := MustEngine(1*Millisecond, 7)
	if err := other.AddController("only", 3*Millisecond, controlFunc(func(Time) {})); err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(st); err == nil {
		t.Error("snapshot with two controllers accepted by an engine with one")
	}
}
