package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestCollectPreservesInputOrder(t *testing.T) {
	const n = 50
	for _, tc := range []struct {
		name string
		cell func(i int) (int, error)
	}{
		{"in order", func(i int) (int, error) { return i * i, nil }},
		// Later cells finish first on purpose.
		{"out of order", func(i int) (int, error) {
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		}},
	} {
		for _, workers := range []int{0, 1, 2, 3, 7, 64} {
			got, err := Collect(workers, n, tc.cell)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("%s, workers=%d: %d results", tc.name, workers, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("%s, workers=%d: out[%d] = %d", tc.name, workers, i, v)
				}
			}
		}
	}
}

func TestCollectEmpty(t *testing.T) {
	got, err := Collect(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("empty sweep: %v, %v", got, err)
	}
}

func TestCollectReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Collect(workers, 20, func(i int) (int, error) {
			if i == 3 || i == 17 {
				return 0, fmt.Errorf("cell %d", i)
			}
			return i, nil
		})
		// The same error a serial in-order sweep reports first.
		if err == nil || err.Error() != "cell 3" {
			t.Errorf("workers=%d: err = %v, want cell 3", workers, err)
		}
	}
}

func TestCollectBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := Collect(3, 64, func(i int) (int, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent cells, bound is 3", p)
	}
}
