package experiments

import (
	"reflect"
	"testing"

	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/policy"
	"kelp/internal/sim"
)

// warmScenario is one quick-window cell used by the warm-start tests.
func warmScenario(m MLKind, k policy.Kind) Scenario {
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

// resultStats flattens everything a table reads from a Result into one
// comparable map.
func resultStats(r *Result) map[string]float64 {
	out := map[string]float64{
		"ml":   r.MLThroughput,
		"tail": r.MLTail,
		"cpu":  r.CPUUnits,
	}
	for name, v := range r.PerTask {
		out["task:"+name] = v
	}
	return out
}

func cacheSize() int {
	warmCache.Lock()
	defer warmCache.Unlock()
	return len(warmCache.entries)
}

// TestWarmStartColdEquivalence pins the PR's headline invariant: a
// warm-started, incrementally-resolved run is byte-identical to a fully
// cold one — across both SNC modes (KP/KP-SD partition the socket, BL/CT
// leave it interleaved) and for both the training and the inference
// snapshot paths, with and without fault injection. Three runs per cell:
// the cold reference (warm-start off, incremental resolution off), the
// first warm run (simulates warmup and publishes the snapshot), and the
// second (restores the snapshot).
func TestWarmStartColdEquivalence(t *testing.T) {
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
		{RNN1, policy.Kelp, faults.Spec{}}, // inference: queues, histograms, device state
		{CNN1, policy.Kelp, faulted},       // injector streams, counts and per-controller memory
		{RNN1, policy.CoreThrottle, faulted},
	}
	for _, tc := range cases {
		s := warmScenario(tc.ml, tc.k)
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

		for name, r := range map[string]*Result{"warmup-simulated": first, "snapshot-restored": second} {
			if !reflect.DeepEqual(resultStats(r), resultStats(want)) {
				t.Errorf("%s/%s: %s run diverged from cold run:\n got: %+v\nwant: %+v",
					tc.ml, tc.k, name, resultStats(r), resultStats(want))
			}
			if !reflect.DeepEqual(r.Faults.Counts(), want.Faults.Counts()) {
				t.Errorf("%s/%s: %s run injected %v, cold run %v",
					tc.ml, tc.k, name, r.Faults.Counts(), want.Faults.Counts())
			}
		}
		if tc.faults.Enabled() && want.Faults.Total() == 0 {
			t.Errorf("%s/%s: faulted cell injected no faults", tc.ml, tc.k)
		}
		// The actuator traces must match too, not just the scored numbers.
		if want.Applied.Runtime != nil {
			if !reflect.DeepEqual(second.Applied.Runtime.History(), want.Applied.Runtime.History()) {
				t.Errorf("%s/%s: restored run's decision history diverged from cold run", tc.ml, tc.k)
			}
		}
		if want.Applied.Throttler != nil {
			if !reflect.DeepEqual(second.Applied.Throttler.History(), want.Applied.Throttler.History()) {
				t.Errorf("%s/%s: restored run's throttle history diverged from cold run", tc.ml, tc.k)
			}
		}
	}
}

// TestWarmStartPublishesAndShares pins the cache mechanics: the first run
// of a configuration publishes exactly one snapshot, and an identical
// second run is served from the same slot rather than splitting the key.
func TestWarmStartPublishesAndShares(t *testing.T) {
	defer SetWarmStart(true)
	SetWarmStart(true)
	ResetWarmCache()
	s := warmScenario(CNN1, policy.Kelp)
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if n := cacheSize(); n != 1 {
		t.Fatalf("want 1 cache entry after first run, got %d", n)
	}
	warmCache.Lock()
	for _, e := range warmCache.entries {
		if e.snap == nil {
			t.Error("first run did not publish a snapshot")
		}
	}
	warmCache.Unlock()
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if n := cacheSize(); n != 1 {
		t.Fatalf("identical second run split the cache: %d entries", n)
	}
	// A different warmup length is a different post-warmup state: new slot.
	s2 := s
	s2.Warmup = 2 * sim.Second
	if _, err := Run(s2); err != nil {
		t.Fatal(err)
	}
	if n := cacheSize(); n != 2 {
		t.Fatalf("changed warmup should add a slot, cache has %d entries", n)
	}
}

// TestWarmStartIneligibleScenariosBypassCache pins the eligibility gate:
// a run with a flight recorder attached never stores or consumes a
// snapshot, while a faulted run does, keyed by its fault spec.
func TestWarmStartIneligibleScenariosBypassCache(t *testing.T) {
	defer SetWarmStart(true)
	SetWarmStart(true)
	ResetWarmCache()

	rec := warmScenario(CNN1, policy.Kelp)
	rec.Events = events.MustNew(events.DefaultCapacity)
	if _, err := Run(rec); err != nil {
		t.Fatal(err)
	}
	if n := cacheSize(); n != 0 {
		t.Fatalf("a recorded run created %d cache entries", n)
	}

	flt := warmScenario(CNN1, policy.Baseline)
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

// TestFigureTableColdEquivalence renders one full figure both ways: the
// warm-started, incrementally-resolved table must be byte-identical to the
// cold-started one, normalization and all.
func TestFigureTableColdEquivalence(t *testing.T) {
	defer SetWarmStart(true)
	render := func(coldStart bool) string {
		h := NewHarness()
		h.Warmup = 1500 * sim.Millisecond
		h.Measure = 1 * sim.Second
		if coldStart {
			SetWarmStart(false)
			h.Node.NoIncremental = true
		} else {
			SetWarmStart(true)
			ResetWarmCache()
		}
		rows, err := Figure5(h)
		if err != nil {
			t.Fatal(err)
		}
		return SensitivityTable("Fig. 5", rows).String()
	}
	cold := render(true)
	warm := render(false)
	if cold != warm {
		t.Errorf("Figure 5 table diverged between cold and warm-started runs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestWarmStartDisabledBypassesCache pins SetWarmStart(false) — the
// -coldstart escape hatch must stop both publishing and consuming.
func TestWarmStartDisabledBypassesCache(t *testing.T) {
	defer SetWarmStart(true)
	ResetWarmCache()
	SetWarmStart(false)
	if _, err := Run(warmScenario(CNN1, policy.Baseline)); err != nil {
		t.Fatal(err)
	}
	if n := cacheSize(); n != 0 {
		t.Fatalf("disabled warm-start created %d cache entries", n)
	}
}
