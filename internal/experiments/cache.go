package experiments

import (
	"fmt"
	"maps"
	"sync"

	"kelp/internal/core"
	"kelp/internal/node"
)

// The result cache. Many sweep cells repeat a whole cell of another
// figure (Fig. 13 re-runs Fig. 9 and Fig. 10 points, the future-work study
// re-runs Fig. 13's, Fig. 15 re-runs Fig. 5's), and a cell's Result is a
// function of its inputs alone. So the first run of each distinct cell
// simulates it and publishes its Result, and every later run of the cell
// gets a copy. A Result holds values only, so no node, controller or
// injector stays alive in the cache. A run with a flight recorder bypasses
// the cache: its events must reach the recorder. The cache is
// process-global and capped.

const resultCacheCap = 256

var resultCache = struct {
	sync.Mutex
	entries  map[string]*flight[*Result]
	disabled bool
}{entries: make(map[string]*flight[*Result])}

// SetWarmStart toggles the result cache process-wide (on by default).
// Turning it off makes every run simulate its cell, for verification and
// benchmarking; the equivalence tests pin byte-identical results either
// way.
func SetWarmStart(on bool) {
	resultCache.Lock()
	resultCache.disabled = !on
	resultCache.Unlock()
}

// ResetWarmCache drops every cached Result, so the next run of each cell
// simulates it as a new process would.
func ResetWarmCache() {
	resultCache.Lock()
	resultCache.entries = make(map[string]*flight[*Result])
	resultCache.Unlock()
}

// resultSlot returns the singleflight slot of a cell, or nil when the
// scenario records events, the cache is disabled, or the cache is full
// (full only admits cells it already holds).
func resultSlot(cfg node.Config, s Scenario) *flight[*Result] {
	if s.Events != nil {
		return nil
	}
	resultCache.Lock()
	disabled := resultCache.disabled
	resultCache.Unlock()
	if disabled {
		return nil
	}
	key := cellKey(cfg, s)
	resultCache.Lock()
	defer resultCache.Unlock()
	f, ok := resultCache.entries[key]
	if !ok {
		if len(resultCache.entries) >= resultCacheCap {
			return nil
		}
		f = &flight[*Result]{}
		resultCache.entries[key] = f
	}
	return f
}

// cellKey renders every input that determines a cell's Result into a
// deterministic string. The Watermarks pointer is dereferenced so equal
// profiles at different addresses share a slot.
func cellKey(cfg node.Config, s Scenario) string {
	opts := s.Opts
	var wm core.Watermarks
	hasWM := opts.Watermarks != nil
	if hasWM {
		wm = *opts.Watermarks
	}
	opts.Watermarks = nil
	return fmt.Sprintf("%#v|%d|%t|%#v|%d|%#v|%t|%#v|%v|%v|%#v",
		cfg, s.ML, s.NoML, s.CPU, s.Policy, opts, hasWM, wm, s.Warmup, s.Measure, s.Faults)
}

// clone returns a copy of r that shares no map with it.
func (r *Result) clone() *Result {
	out := *r
	out.PerTask = maps.Clone(r.PerTask)
	out.Faults.Counts = maps.Clone(r.Faults.Counts)
	return &out
}
