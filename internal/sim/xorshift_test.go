package sim

import "testing"

// TestXorshiftSequencePinned pins the generator's output: the fault
// injectors' replay guarantees (and every recorded fault trace) depend on
// these exact draws.
func TestXorshiftSequencePinned(t *testing.T) {
	x := NewXorshift(42)
	for i, want := range []uint64{0x31b0ece7c4f697a2, 0x9008a3b1cb686f03, 0x7c7173abd97be16f} {
		if got := x.Next(); got != want {
			t.Errorf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	if got, want := NewXorshift(7).Float64(), 0.08170555950360558; got != want {
		t.Errorf("Float64 = %v, want %v", got, want)
	}
}

func TestXorshiftFloat64Range(t *testing.T) {
	x := NewXorshift(0)
	for i := 0; i < 10000; i++ {
		if v := x.Float64(); v < 0 || v >= 1 {
			t.Fatalf("draw %d = %v outside [0, 1)", i, v)
		}
	}
}

// TestXorshiftStateResumes pins that State is the generator's whole
// position: a generator set to it continues the original's sequence.
func TestXorshiftStateResumes(t *testing.T) {
	x := NewXorshift(9)
	for i := 0; i < 5; i++ {
		x.Next()
	}
	y := NewXorshift(1)
	if err := y.SetState(x.State()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := x.Next(), y.Next(); a != b {
			t.Fatalf("draw %d: resumed %#x, original %#x", i, b, a)
		}
	}
	if err := y.SetState(0); err == nil {
		t.Error("state 0 (the fixed point) accepted")
	}
}
