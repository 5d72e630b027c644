package experiments

import (
	"fmt"
	"sync"

	"kelp/internal/core"
	"kelp/internal/node"
	"kelp/internal/policy"
)

// Warm-started sweep cells. Every figure sweep pays the same warmup cost
// per cell, and many cells share their entire warmup-determining
// configuration (same ML workload, CPU mix, policy, node and warmup length)
// — the Fig. 11 actuator trace re-runs the Fig. 9 sweep point, Fig. 14
// re-measures the Fig. 13 scenarios. The first run of each distinct
// configuration executes warmup normally and captures a full simulation
// snapshot (node + controller state); subsequent runs rebuild the cell
// deterministically and restore the snapshot instead of re-simulating
// warmup. Equivalence tests pin that restored runs are byte-identical to
// cold-started ones.
//
// Every cell snapshots: tasks, arrival-jitter streams and fault injectors
// all capture their state (the fault spec is part of the cache key). The
// one exception is a cell with a flight recorder attached, whose warmup
// events must reach the recorder; it always simulates its warmup.
//
// The cache is process-global (the bench harness builds a fresh Harness per
// iteration) and capped; it holds only immutable snapshots, shared across
// restores.

// cellSnapshot is one cached post-warmup state: the node snapshot plus the
// policy controller's internal state.
type cellSnapshot struct {
	node   *node.Snapshot
	policy policy.State
}

// warmEntry is one singleflight slot: the first run of a configuration
// warms up inside once and publishes the snapshot; concurrent runs of the
// same configuration block on once and then restore.
type warmEntry struct {
	once sync.Once
	// snap is written once inside once and read only after once returns,
	// so it needs no further synchronization.
	snap *cellSnapshot
}

const warmCacheCap = 256

var warmCache = struct {
	sync.Mutex
	entries  map[string]*warmEntry
	disabled bool
}{entries: make(map[string]*warmEntry)}

// SetWarmStart toggles warm-started sweep cells process-wide (on by
// default). Turning them off makes every run re-simulate its warmup — for
// verification and benchmarking, not correctness; the equivalence tests pin
// byte-identical results either way.
func SetWarmStart(on bool) {
	warmCache.Lock()
	warmCache.disabled = !on
	warmCache.Unlock()
}

// ResetWarmCache drops every cached snapshot (tests).
func ResetWarmCache() {
	warmCache.Lock()
	warmCache.entries = make(map[string]*warmEntry)
	warmCache.Unlock()
}

// warmEntryFor returns the singleflight slot for a key, or nil when the
// cache is disabled or full (full only admits keys it already holds).
func warmEntryFor(key string) *warmEntry {
	warmCache.Lock()
	defer warmCache.Unlock()
	if warmCache.disabled {
		return nil
	}
	e, ok := warmCache.entries[key]
	if !ok {
		if len(warmCache.entries) >= warmCacheCap {
			return nil
		}
		e = &warmEntry{}
		warmCache.entries[key] = e
	}
	return e
}

// warmKey renders every input that determines the post-warmup state into a
// deterministic string. Measure is deliberately excluded — it only extends
// the run past the snapshot point. The Watermarks pointer is dereferenced
// so equal profiles at different addresses share a slot.
func warmKey(cfg node.Config, s Scenario) string {
	opts := s.Opts
	var wm core.Watermarks
	hasWM := opts.Watermarks != nil
	if hasWM {
		wm = *opts.Watermarks
	}
	opts.Watermarks = nil
	return fmt.Sprintf("%#v|%d|%t|%#v|%d|%#v|%t|%#v|%v|%#v",
		cfg, s.ML, s.NoML, s.CPU, s.Policy, opts, hasWM, wm, s.Warmup, s.Faults)
}

// warmEligible reports whether a scenario's warmup may be served from (or
// stored into) the cache.
func warmEligible(s Scenario) bool {
	return s.Events == nil
}

// snapshot captures the cell's full post-warmup state.
func (c *cell) snapshot() *cellSnapshot {
	return &cellSnapshot{node: c.n.Snapshot(), policy: c.applied.State()}
}

// restore installs a snapshot onto a freshly built cell of the same
// configuration.
func (c *cell) restore(cs *cellSnapshot) error {
	if err := c.applied.Restore(cs.policy); err != nil {
		return err
	}
	return c.n.Restore(cs.node)
}

// warm brings the cell to its post-warmup state: restored from the cache
// when an identical configuration already warmed up, simulated otherwise
// (and published for the next run when possible).
func (c *cell) warm(s Scenario, cfg node.Config) {
	if !warmEligible(s) {
		c.n.Run(s.Warmup)
		return
	}
	e := warmEntryFor(warmKey(cfg, s))
	if e == nil {
		c.n.Run(s.Warmup)
		return
	}
	warmed := false
	e.once.Do(func() {
		c.n.Run(s.Warmup)
		e.snap = c.snapshot()
		warmed = true
	})
	if warmed {
		return
	}
	if err := c.restore(e.snap); err != nil {
		// A failed restore leaves partial state. It cannot happen for a
		// same-key rebuild (shape checks all derive from the key), and a
		// half-restored cell cannot be measured, so fail loudly.
		panic("experiments: warm restore failed on identically-built cell: " + err.Error())
	}
}
