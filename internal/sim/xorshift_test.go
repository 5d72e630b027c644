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
