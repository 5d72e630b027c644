package events

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestNewValidation(t *testing.T) {
	for _, c := range []int{0, -1} {
		if _, err := New(c); err == nil {
			t.Errorf("New(%d) accepted", c)
		}
	}
	if r := MustNew(3); r.Cap() != 3 {
		t.Errorf("Cap = %d, want 3", r.Cap())
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(1, DistressAssert, "memsys", nil) // must not panic
	if r.Len() != 0 || r.Cap() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reported non-zero state")
	}
	if got := r.Since(0); got != nil {
		t.Errorf("nil Since = %v", got)
	}
	if r.NextSeq() != 1 {
		t.Errorf("nil NextSeq = %d", r.NextSeq())
	}
}

func TestEmitAssignsMonotonicSeqs(t *testing.T) {
	r := MustNew(16)
	for i := 0; i < 5; i++ {
		r.Emit(float64(i), KelpActuate, "kelp", map[string]any{"i": i})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("evs[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Time != float64(i) {
			t.Errorf("evs[%d].Time = %v", i, e.Time)
		}
	}
	if r.NextSeq() != 6 {
		t.Errorf("NextSeq = %d, want 6", r.NextSeq())
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := MustNew(3)
	for i := 1; i <= 5; i++ {
		r.Emit(float64(i), AgentAdmit, "agent", nil)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("ring holds seqs %d..%d, want 3..5", evs[0].Seq, evs[2].Seq)
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}
}

func TestSinceCursorAndTypeFilter(t *testing.T) {
	r := MustNew(16)
	r.Emit(0.1, DistressAssert, "memsys", nil)
	r.Emit(0.2, KelpActuate, "kelp", nil)
	r.Emit(0.3, DistressDeassert, "memsys", nil)
	r.Emit(0.4, KelpActuate, "kelp", nil)

	if got := r.Since(2); len(got) != 2 || got[0].Seq != 3 {
		t.Errorf("Since(2) = %v", got)
	}
	got := r.Since(0, KelpActuate)
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 4 {
		t.Errorf("Since(0, KelpActuate) = %v", got)
	}
	got = r.Since(0, DistressAssert, DistressDeassert)
	if len(got) != 2 || got[0].Type != DistressAssert || got[1].Type != DistressDeassert {
		t.Errorf("distress filter = %v", got)
	}
	if got := r.Since(4); got != nil {
		t.Errorf("Since(end) = %v, want nil", got)
	}
}

func TestWriteJSONLIsDeterministic(t *testing.T) {
	mk := func() []Event {
		r := MustNew(8)
		r.Emit(0.5, KelpActuate, "kelp", map[string]any{
			"low_cores": 4, "action_low": "THROTTLE", "socket_bw": 1.5e10,
		})
		r.Emit(0.6, DistressAssert, "memsys", map[string]any{"socket": 0, "controller": 1})
		return r.Events()
	}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, mk()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("JSONL not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if a.Len() == 0 || bytes.Count(a.Bytes(), []byte("\n")) != 2 {
		t.Errorf("JSONL shape wrong: %q", a.String())
	}
}

func TestConcurrentEmitters(t *testing.T) {
	r := MustNew(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(float64(i), AgentAdmit, fmt.Sprintf("g%d", g), nil)
			}
		}(g)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != 800 {
		t.Fatalf("len = %d, want 800", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d -> %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestTypesListsTaxonomy(t *testing.T) {
	seen := map[Type]bool{}
	for _, ty := range Types() {
		if seen[ty] {
			t.Errorf("duplicate type %q", ty)
		}
		seen[ty] = true
	}
	for _, want := range []Type{DistressAssert, KelpActuate, AgentAdmit} {
		if !seen[want] {
			t.Errorf("taxonomy missing %q", want)
		}
	}
}
