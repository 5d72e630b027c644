package experiments

import (
	"math"
	"reflect"
	"testing"

	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/policy"
	"kelp/internal/pool"
	"kelp/internal/sim"
)

// cacheScenario is one quick-window cell used by the result-cache tests.
func cacheScenario(m MLKind, k policy.Kind) Scenario {
	return Scenario{
		ML:      m,
		CPU:     StitchSweep(3),
		Policy:  k,
		Opts:    policy.DefaultOptions(),
		Node:    NewHarness().Node,
		Warmup:  1500 * sim.Millisecond,
		Measure: 1 * sim.Second,
	}
}

func cacheSize() int {
	resultCache.Lock()
	defer resultCache.Unlock()
	return len(resultCache.entries)
}

// sameBits reports whether a and b hold the same values, comparing floats
// by their bits (so -0 differs from 0, and a NaN equals the same NaN).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !sameBits(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// TestResultCacheColdEquivalence pins the cache's invariant: a cache hit
// equals a fresh, cold run bitwise on every Result field, across both SNC
// modes (KP/KP-SD partition the socket, BL/CT leave it interleaved), for
// training and inference, with and without fault injection. Three runs per
// cell: the cold reference (cache off, incremental resolution off), the
// first cached run (simulates and publishes), and the second (a hit).
func TestResultCacheColdEquivalence(t *testing.T) {
	defer SetWarmStart(true)
	faulted := faults.Spec{Seed: 3, Drop: 0.2, Stale: 0.1, Flap: 0.1, ActStick: 0.1, Stall: 0.05}
	cases := []struct {
		ml     MLKind
		k      policy.Kind
		faults faults.Spec
	}{
		{CNN1, policy.Baseline, faults.Spec{}},
		{CNN1, policy.CoreThrottle, faults.Spec{}},
		{CNN1, policy.KelpSubdomain, faults.Spec{}},
		{CNN1, policy.Kelp, faults.Spec{}},
		{RNN1, policy.Kelp, faults.Spec{}}, // inference: tail latency
		{CNN1, policy.Kelp, faulted},       // training with injected faults
		{RNN1, policy.CoreThrottle, faulted},
	}
	for _, tc := range cases {
		s := cacheScenario(tc.ml, tc.k)
		s.Faults = tc.faults

		SetWarmStart(false)
		cold := s
		cold.Node.NoIncremental = true
		want, err := Run(cold)
		if err != nil {
			t.Fatal(err)
		}

		SetWarmStart(true)
		ResetWarmCache()
		first, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if n := cacheSize(); n != 1 {
			t.Fatalf("%s/%s: %d cache entries after two identical runs, want 1", tc.ml, tc.k, n)
		}

		for name, r := range map[string]*Result{"simulated": first, "cache-hit": second} {
			if !sameBits(reflect.ValueOf(*r), reflect.ValueOf(*want)) {
				t.Errorf("%s/%s: %s run diverged from cold run:\n got: %+v\nwant: %+v", tc.ml, tc.k, name, *r, *want)
			}
		}
		if tc.faults.Enabled() && want.Faults.Total == 0 {
			t.Errorf("%s/%s: faulted cell injected no faults", tc.ml, tc.k)
		}
		if tc.k != policy.Baseline && want.Controls.RuntimeDecisions+want.Controls.ThrottlerDecisions == 0 {
			t.Errorf("%s/%s: controller recorded no decisions", tc.ml, tc.k)
		}
	}
}

// TestResultCacheHitIsCopy pins that a hit shares nothing with the cached
// Result: a caller that writes into its maps changes no later hit.
func TestResultCacheHitIsCopy(t *testing.T) {
	defer SetWarmStart(true)
	SetWarmStart(true)
	ResetWarmCache()
	s := cacheScenario(CNN1, policy.Kelp)
	s.Faults = faults.Spec{Seed: 1, Drop: 0.5}
	first, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	SetWarmStart(false)
	want, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	SetWarmStart(true)
	for k := range first.PerTask {
		first.PerTask[k] = -1
	}
	for k := range first.Faults.Counts {
		first.Faults.Counts[k] = 0
	}
	second, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(reflect.ValueOf(*second), reflect.ValueOf(*want)) {
		t.Errorf("a caller's writes reached the cache:\n got: %+v\nwant: %+v", *second, *want)
	}
}

// TestResultCacheConcurrentCallers runs one cell from several goroutines
// at once: they share one slot, and each gets its own equal copy.
func TestResultCacheConcurrentCallers(t *testing.T) {
	defer SetWarmStart(true)
	SetWarmStart(true)
	ResetWarmCache()
	s := cacheScenario(CNN1, policy.Kelp)
	results, err := pool.Collect(4, 4, func(int) (*Result, error) { return Run(s) })
	if err != nil {
		t.Fatal(err)
	}
	if n := cacheSize(); n != 1 {
		t.Fatalf("%d cache entries after concurrent runs of one cell, want 1", n)
	}
	for i, r := range results[1:] {
		if !sameBits(reflect.ValueOf(*r), reflect.ValueOf(*results[0])) {
			t.Errorf("caller %d got %+v, caller 0 %+v", i+1, *r, *results[0])
		}
		if reflect.ValueOf(r.PerTask).Pointer() == reflect.ValueOf(results[0].PerTask).Pointer() {
			t.Errorf("callers %d and 0 share a PerTask map", i+1)
		}
	}
}

// TestResultHoldsValuesOnly fails when Result gains a field that can reach
// a simulation object: a cached Result must keep no node, controller or
// injector alive.
func TestResultHoldsValuesOnly(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Struct:
			for i := range ty.NumField() {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Map:
			walk(path+"[key]", ty.Key())
			walk(path+"[value]", ty.Elem())
		case reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Result", reflect.TypeOf(Result{}))
}

// TestResultCachePublishesAndShares pins the cache mechanics: the first run
// of a cell publishes exactly one entry, an identical second run is served
// from the same slot, and a changed warmup or measure window is a new cell.
func TestResultCachePublishesAndShares(t *testing.T) {
	defer SetWarmStart(true)
	SetWarmStart(true)
	ResetWarmCache()
	s := cacheScenario(CNN1, policy.Kelp)
	for i, step := range []struct {
		warmup, measure sim.Duration
		entries         int
	}{
		{s.Warmup, s.Measure, 1},
		{s.Warmup, s.Measure, 1},
		{2 * sim.Second, s.Measure, 2},
		{s.Warmup, 2 * sim.Second, 3},
	} {
		c := s
		c.Warmup, c.Measure = step.warmup, step.measure
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		if n := cacheSize(); n != step.entries {
			t.Fatalf("after run %d: %d cache entries, want %d", i, n, step.entries)
		}
	}
	resultCache.Lock()
	for key, f := range resultCache.entries {
		if f.val == nil {
			t.Errorf("entry %q holds no Result", key)
		}
	}
	resultCache.Unlock()
}

// TestResultCacheBypass pins the eligibility gate: a run with a flight
// recorder attached never stores or reads an entry, while a faulted run
// does, keyed by its fault spec.
func TestResultCacheBypass(t *testing.T) {
	defer SetWarmStart(true)
	SetWarmStart(true)
	ResetWarmCache()

	rec := cacheScenario(CNN1, policy.Kelp)
	rec.Events = events.MustNew(events.DefaultCapacity)
	if _, err := Run(rec); err != nil {
		t.Fatal(err)
	}
	if n := cacheSize(); n != 0 {
		t.Fatalf("a recorded run created %d cache entries", n)
	}
	if len(rec.Events.Events()) == 0 {
		t.Fatal("a recorded run recorded nothing")
	}

	flt := cacheScenario(CNN1, policy.Baseline)
	for i, step := range []struct {
		seed    uint64
		entries int
	}{{1, 1}, {1, 1}, {2, 2}} {
		flt.Faults = faults.Spec{Seed: step.seed, Drop: 0.5}
		if _, err := Run(flt); err != nil {
			t.Fatal(err)
		}
		if n := cacheSize(); n != step.entries {
			t.Fatalf("after faulted run %d (seed %d): %d cache entries, want %d", i, step.seed, n, step.entries)
		}
	}
}

// TestFigureTableColdEquivalence renders one full figure three ways: cold,
// cached from an empty cache (every cell simulated and published), and
// cached again on a fresh harness (every cell a hit). All three tables must
// be byte-identical, normalization and all.
func TestFigureTableColdEquivalence(t *testing.T) {
	defer SetWarmStart(true)
	render := func(coldStart bool) string {
		h := NewHarness()
		h.Warmup = 1500 * sim.Millisecond
		h.Measure = 1 * sim.Second
		SetWarmStart(!coldStart)
		if coldStart {
			h.Node.NoIncremental = true
		}
		rows, err := Figure5(h)
		if err != nil {
			t.Fatal(err)
		}
		return SensitivityTable("Fig. 5", rows).String()
	}
	cold := render(true)
	ResetWarmCache()
	published := render(false)
	hits := render(false)
	if cold != published || cold != hits {
		t.Errorf("Figure 5 table diverged between cold and cached runs:\ncold:\n%s\npublished:\n%s\nhits:\n%s", cold, published, hits)
	}
}

// TestResultCacheDisabled pins SetWarmStart(false): the -coldstart escape
// hatch must stop both publishing and reading.
func TestResultCacheDisabled(t *testing.T) {
	defer SetWarmStart(true)
	ResetWarmCache()
	SetWarmStart(false)
	if _, err := Run(cacheScenario(CNN1, policy.Baseline)); err != nil {
		t.Fatal(err)
	}
	if n := cacheSize(); n != 0 {
		t.Fatalf("disabled cache created %d entries", n)
	}
}
