package experiments

import (
	"fmt"
	"sync"

	"kelp/internal/events"
	"kelp/internal/faults"
	"kelp/internal/fleet"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/sim"
)

// Harness runs scenarios against a fixed node configuration and caches
// standalone baselines for normalization, as the paper normalizes every
// result to the accelerated task's standalone performance (§V-A).
//
// A Harness is safe for concurrent use by the parallel sweep engine
// (runner.go) provided its exported fields are not mutated while sweeps
// are in flight: configure it first, then run. Standalone baselines and
// fleet machine measurements are memoized per harness, so its fields must
// not change after the first call to Standalone or MachineMeasurer's
// measurer either: a changed field would be served stale results.
type Harness struct {
	// Node is the hardware configuration shared by every run.
	Node node.Config
	// Opts are the policy options shared by every run.
	Opts policy.Options
	// Warmup and Measure bound each run.
	Warmup, Measure sim.Duration
	// Parallel bounds how many scenario cells the Figure*/sweep functions
	// evaluate concurrently. 0 selects DefaultParallelism; 1 recovers the
	// historical serial behaviour. Output is identical either way: every
	// cell owns a freshly built node with its own seeded RNG streams, and
	// results are collected in input order.
	Parallel int
	// Events, when non-nil, attaches a flight recorder to every colocation
	// run (standalone baselines stay unrecorded — they are cached and shared
	// across cells, so their events would repeat arbitrarily). The recorder
	// never changes results, but a merged stream from concurrent cells
	// interleaves nondeterministically: set Parallel = 1 when recording.
	Events *events.Recorder
	// Faults configures fault injection for every colocation run
	// (standalone baselines stay fault-free — they are the normalization
	// reference and must measure the workload, not the injector). Each run
	// builds its own injector from the spec, so parallel sweeps remain
	// deterministic per cell.
	Faults faults.Spec

	mu         sync.Mutex
	standalone map[MLKind]*flight[*Result]
	shapes     map[fleet.MachineShape]*flight[*fleet.Measurement]
}

// flight is one singleflight slot of a harness memo: the first goroutine
// to claim a key computes its value inside once; any concurrent caller
// blocks on the same once and shares the result, error included.
type flight[T any] struct {
	once sync.Once
	val  T
	err  error
}

// do returns the slot's value, computing it with fn on the first call.
func (f *flight[T]) do(fn func() (T, error)) (T, error) {
	f.once.Do(func() { f.val, f.err = fn() })
	return f.val, f.err
}

// claim returns memo's slot for key, creating the map and the slot as
// needed. mu guards memo.
func claim[K comparable, T any](mu *sync.Mutex, memo *map[K]*flight[T], key K) *flight[T] {
	mu.Lock()
	defer mu.Unlock()
	if *memo == nil {
		*memo = make(map[K]*flight[T])
	}
	f, ok := (*memo)[key]
	if !ok {
		f = &flight[T]{}
		(*memo)[key] = f
	}
	return f
}

// NewHarness returns a harness with the evaluation defaults: 3 s of warmup
// (enough for every controller to converge) and 2 s measured.
func NewHarness() *Harness {
	return &Harness{
		Node:    node.DefaultConfig(),
		Opts:    policy.DefaultOptions(),
		Warmup:  3 * sim.Second,
		Measure: 2 * sim.Second,
	}
}

// workers resolves the harness's configured parallelism.
func (h *Harness) workers() int {
	if h.Parallel > 0 {
		return h.Parallel
	}
	return DefaultParallelism()
}

// Standalone returns the ML task's uncontended run (Baseline placement, no
// colocated tasks), cached per workload. Concurrent callers requesting the
// same workload share one computation: exactly one goroutine runs the
// baseline scenario while the others block until it lands.
func (h *Harness) Standalone(m MLKind) (*Result, error) {
	return claim(&h.mu, &h.standalone, m).do(func() (*Result, error) {
		opts := h.Opts
		opts.MLCores = m.MLCores()
		r, err := Run(Scenario{
			ML:      m,
			Policy:  policy.Baseline,
			Opts:    opts,
			Node:    h.Node,
			Warmup:  h.Warmup,
			Measure: h.Measure,
		})
		if err != nil {
			return nil, fmt.Errorf("standalone %s: %w", m, err)
		}
		return r, nil
	})
}

// NormResult is a run normalized against the ML task's standalone run.
type NormResult struct {
	Raw *Result
	// MLPerf is ML throughput normalized to standalone (1.0 = no loss).
	MLPerf float64
	// MLTailNorm is RNN1 tail latency normalized to standalone (1.0 = no
	// inflation); 0 for training workloads.
	MLTailNorm float64
	// CPUUnits is raw summed low-priority throughput, for cross-policy
	// comparison at fixed offered work.
	CPUUnits float64
}

// RunNormalized executes a colocation scenario under the given policy and
// normalizes the ML side against the standalone baseline.
func (h *Harness) RunNormalized(m MLKind, cpu []CPUSpec, k policy.Kind) (*NormResult, error) {
	base, err := h.Standalone(m)
	if err != nil {
		return nil, err
	}
	opts := h.Opts
	opts.MLCores = m.MLCores()
	r, err := Run(Scenario{
		ML:      m,
		CPU:     cpu,
		Policy:  k,
		Opts:    opts,
		Node:    h.Node,
		Warmup:  h.Warmup,
		Measure: h.Measure,
		Events:  h.Events,
		Faults:  h.Faults,
	})
	if err != nil {
		return nil, fmt.Errorf("%s + %d CPU tasks under %s: %w", m, len(cpu), k, err)
	}
	out := &NormResult{Raw: r, CPUUnits: r.CPUUnits}
	if base.MLThroughput > 0 {
		out.MLPerf = r.MLThroughput / base.MLThroughput
	}
	if base.MLTail > 0 {
		out.MLTailNorm = r.MLTail / base.MLTail
	}
	return out, nil
}

// MixFor returns the standard instance list for one of the evaluation's
// batch workloads (Fig. 13 mixes). The final instance carries the Backfill
// hint: Kelp places it in the high-priority subdomain, every other policy
// co-places it with the rest, so offered work is identical across policies.
func MixFor(kind CPUKind) ([]CPUSpec, error) {
	switch kind {
	case Stream:
		return []CPUSpec{
			{Kind: Stream, Threads: 10},
			{Kind: Stream, Threads: 6, Backfill: true},
		}, nil
	case Stitch:
		return []CPUSpec{
			{Kind: Stitch},
			{Kind: Stitch},
			{Kind: Stitch},
			{Kind: Stitch},
			{Kind: Stitch, Backfill: true},
		}, nil
	case CPUML:
		return []CPUSpec{
			{Kind: CPUML, Threads: 12},
			{Kind: CPUML, Threads: 4, Backfill: true},
		}, nil
	default:
		return nil, fmt.Errorf("experiments: no standard mix for %s", kind)
	}
}

// StitchSweep returns n Stitch instances (Fig. 9); the last is the
// backfill candidate when n > 1.
func StitchSweep(n int) []CPUSpec {
	specs := make([]CPUSpec, n)
	for i := range specs {
		specs[i] = CPUSpec{Kind: Stitch}
	}
	if n > 1 {
		specs[n-1].Backfill = true
	}
	return specs
}

// CPUMLSweep returns CPUML instances totalling t threads (Fig. 10),
// splitting off a backfill shard of about a quarter of the threads.
func CPUMLSweep(t int) []CPUSpec {
	if t < 2 {
		return []CPUSpec{{Kind: CPUML, Threads: t}}
	}
	shard := t / 4
	if shard < 1 {
		shard = 1
	}
	return []CPUSpec{
		{Kind: CPUML, Threads: t - shard},
		{Kind: CPUML, Threads: shard, Backfill: true},
	}
}
