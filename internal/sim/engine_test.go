package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
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
	if got := e.Now(); !ApproxEqual(got, 50*Millisecond, 1e-9) {
		t.Fatalf("Now() = %v, want 50ms", got)
	}
	if e.Steps() != 50 {
		t.Fatalf("Steps() = %d, want 50", e.Steps())
	}
}

func TestSteppersRunInOrderEveryTick(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	var order []int
	e.AddStepper(StepFunc(func(now, dt float64) { order = append(order, 1) }))
	e.AddStepper(StepFunc(func(now, dt float64) { order = append(order, 2) }))
	e.Run(3 * Millisecond)
	want := []int{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("got %d calls, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("call order %v, want %v", order, want)
		}
	}
}

func TestControllerFiresAtPeriod(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	var fires []float64
	err := e.AddController("c", 10*Millisecond, ControlFunc(func(now float64) {
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
		if !ApproxEqual(fires[i], want, 1e-9) {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want)
		}
	}
}

func TestControllerRejectsBadArgs(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	if err := e.AddController("x", 0, ControlFunc(func(float64) {})); err == nil {
		t.Error("zero period accepted")
	}
	if err := e.AddController("x", 1, nil); err == nil {
		t.Error("nil controller accepted")
	}
}

func TestControllerFiresBeforeSteppersOnItsTick(t *testing.T) {
	e := MustEngine(1*Millisecond, 1)
	var log []string
	e.AddStepper(StepFunc(func(now, dt float64) { log = append(log, "step") }))
	if err := e.AddController("c", 2*Millisecond, ControlFunc(func(now float64) {
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
	e.AddStepper(StepFunc(func(now, dt float64) { n++ }))
	elapsed, done := e.RunWhile(1*Second, func() bool { return n < 7 })
	if !done {
		t.Fatal("RunWhile hit cap, want condition exit")
	}
	if n != 7 {
		t.Fatalf("n = %d, want 7", n)
	}
	if !ApproxEqual(elapsed, 7*Millisecond, 1e-9) {
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

// TestRunRejectsBadSpans pins the argument checks: Run panics on a
// negative or non-finite span, RunUntil on a non-finite deadline (a batch
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
	if e.Now() != 0 || e.Steps() != 0 {
		t.Errorf("rejected runs advanced the engine to %v (%d steps)", e.Now(), e.Steps())
	}
	e.Run(3 * Millisecond)
	e.RunUntil(1 * Millisecond)
	if e.Steps() != 3 {
		t.Errorf("RunUntil into the past ran %d steps, want none", e.Steps()-3)
	}
}

// traceEntry is one tick or one controller firing, in dispatch order.
type traceEntry struct {
	ctrl bool
	at   Time
}

// batchTracer is a BatchStepper that logs every tick it advances and takes
// at most max of them per StepN call.
type batchTracer struct {
	trace *[]traceEntry
	max   int
	calls int
}

func (b *batchTracer) Step(now Time, dt Duration) {
	*b.trace = append(*b.trace, traceEntry{at: now})
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
// engine handing a BatchStepper whole runs dispatches the same ticks at
// the same times, interleaved with the same controller firings, as an
// engine ticking a plain Stepper, for runs cut short at any length and for
// Run spans that end between ticks.
func TestRunUntilBatchMatchesTicks(t *testing.T) {
	drive := func(st func(trace *[]traceEntry) Stepper) ([]traceEntry, *Engine) {
		var trace []traceEntry
		e := MustEngine(1*Millisecond, 1)
		e.AddStepper(st(&trace))
		for _, period := range []Duration{2.5 * Millisecond, 7 * Millisecond} {
			if err := e.AddController(fmt.Sprint(period), period, ControlFunc(func(now Time) {
				trace = append(trace, traceEntry{ctrl: true, at: now})
			})); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range []Duration{1 * Millisecond, 10.5 * Millisecond, 0, 33 * Millisecond, 0.2 * Millisecond} {
			e.Run(d)
		}
		e.RunUntil(e.Now() + 61*Millisecond)
		return trace, e
	}
	want, ref := drive(func(trace *[]traceEntry) Stepper {
		return StepFunc(func(now Time, dt Duration) { *trace = append(*trace, traceEntry{at: now}) })
	})
	for _, max := range []int{1, 3, 1000} {
		var bt *batchTracer
		got, e := drive(func(trace *[]traceEntry) Stepper {
			bt = &batchTracer{trace: trace, max: max}
			return bt
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("max %d: batched dispatch diverged from per-tick dispatch:\n got: %v\nwant: %v", max, got, want)
		}
		if e.Now() != ref.Now() || e.Steps() != ref.Steps() {
			t.Errorf("max %d: engine at %v after %d steps, want %v after %d", max, e.Now(), e.Steps(), ref.Now(), ref.Steps())
		}
		if max > 1 && bt.calls >= int(e.Steps()) {
			t.Errorf("max %d: %d StepN calls for %d ticks, want batching", max, bt.calls, e.Steps())
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

func TestClampProperties(t *testing.T) {
	f := func(v, a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-0.5, 0}, {0, 0}, {0.25, 0.25}, {1, 1}, {3, 1},
	}
	for _, c := range cases {
		if got := Clamp01(c.in); got != c.want {
			t.Errorf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLerpEndpoints(t *testing.T) {
	if Lerp(2, 10, 0) != 2 || Lerp(2, 10, 1) != 10 {
		t.Error("Lerp endpoints wrong")
	}
	if got := Lerp(2, 10, 0.5); got != 6 {
		t.Errorf("Lerp midpoint = %v, want 6", got)
	}
	if got := Lerp(2, 10, 5); got != 10 {
		t.Errorf("Lerp clamps t: got %v, want 10", got)
	}
}

func TestSafeDiv(t *testing.T) {
	if got := SafeDiv(10, 2, -1); got != 5 {
		t.Errorf("SafeDiv(10,2) = %v", got)
	}
	if got := SafeDiv(10, 0, -1); got != -1 {
		t.Errorf("SafeDiv(10,0) = %v, want default", got)
	}
	if got := SafeDiv(10, math.NaN(), -1); got != -1 {
		t.Errorf("SafeDiv(10,NaN) = %v, want default", got)
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

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("tiny absolute difference should be equal")
	}
	if !ApproxEqual(1e9, 1e9*(1+1e-10), 1e-9) {
		t.Error("tiny relative difference should be equal")
	}
	if ApproxEqual(1.0, 2.0, 1e-9) {
		t.Error("1 and 2 should differ")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := MustEngine(1*Millisecond, 99)
		rng := e.RNG().Stream("load")
		var out []float64
		e.AddStepper(StepFunc(func(now, dt float64) {
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
