package experiments

import (
	"reflect"
	"sync"
	"testing"

	"kelp/internal/sim"
)

// TestStandaloneSingleflight hammers the baseline cache from many
// goroutines: every caller must get the same cached *Result, i.e. one
// computation served to all.
func TestStandaloneSingleflight(t *testing.T) {
	h := NewHarness()
	h.Warmup = 200 * sim.Millisecond
	h.Measure = 200 * sim.Millisecond

	const callers = 12
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			r, err := h.Standalone(CNN3)
			if err != nil {
				t.Error(err)
				return
			}
			results[c] = r
		}(c)
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		if results[c] != results[0] {
			t.Fatalf("caller %d got a different baseline pointer", c)
		}
	}
	if results[0] == nil || results[0].MLThroughput <= 0 {
		t.Fatalf("baseline = %+v", results[0])
	}
}

func TestStandaloneZeroValueHarness(t *testing.T) {
	// A zero-value Harness (nil cache map) must still lazily initialize.
	h := &Harness{
		Node:    NewHarness().Node,
		Opts:    NewHarness().Opts,
		Warmup:  100 * sim.Millisecond,
		Measure: 100 * sim.Millisecond,
	}
	if _, err := h.Standalone(RNN1); err != nil {
		t.Fatal(err)
	}
}

// TestFigure13ParallelMatchesSerial is the determinism gate: the pooled
// sweep must be element-for-element identical to the serial run, because
// every cell owns a freshly seeded node and rows are collected in input
// order.
func TestFigure13ParallelMatchesSerial(t *testing.T) {
	mk := func(parallel int) []OverallRow {
		h := NewHarness()
		h.Parallel = parallel
		h.Warmup = 300 * sim.Millisecond
		h.Measure = 200 * sim.Millisecond
		rows, err := Figure13(h)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := mk(1)
	parallel := mk(8)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("row %d differs:\nserial:   %+v\nparallel: %+v",
				i, serial[i], parallel[i])
		}
	}
}

// TestSensitivityParallelMatchesSerial covers the same property on a
// standalone-normalized sweep, where the singleflight baseline cache is in
// the concurrent path.
func TestSensitivityParallelMatchesSerial(t *testing.T) {
	mk := func(parallel int) []SensitivityRow {
		h := NewHarness()
		h.Parallel = parallel
		h.Warmup = 300 * sim.Millisecond
		h.Measure = 200 * sim.Millisecond
		rows, err := Figure5(h)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if s, p := mk(1), mk(8); !reflect.DeepEqual(s, p) {
		t.Errorf("serial and parallel Figure 5 differ:\n%+v\n%+v", s, p)
	}
}
