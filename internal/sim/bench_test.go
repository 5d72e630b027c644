package sim

import "testing"

// countStepper is a minimal stepper for isolating engine dispatch cost.
type countStepper struct{ n uint64 }

func (c *countStepper) StepN(now Time, dt Duration, deadline, due Time) int {
	c.n++
	return 1
}

type countController struct{ n uint64 }

func (c *countController) Control(now float64) { c.n++ }

// BenchmarkEngineTick measures the engine's per-tick dispatch overhead —
// the fixed cost every simulated 100µs pays before any model code runs —
// with a realistic controller count (Kelp + CT + MBA). Dispatch must not
// allocate.
func BenchmarkEngineTick(b *testing.B) {
	e := MustEngine(DefaultStep, 1)
	st := &countStepper{}
	e.SetStepper(st)
	for _, name := range []string{"kelp", "ct", "mba"} {
		if err := e.AddController(name, 25*Millisecond, &countController{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tick()
	}
	if st.n == 0 {
		b.Fatal("stepper never ran")
	}
}

// TestEngineTickAllocs pins that engine dispatch itself is allocation-free.
func TestEngineTickAllocs(t *testing.T) {
	e := MustEngine(DefaultStep, 1)
	e.SetStepper(&countStepper{})
	if err := e.AddController("c", 25*Millisecond, &countController{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() { e.Tick() })
	if avg != 0 {
		t.Fatalf("engine tick allocates %v allocs/op, want 0", avg)
	}
}
