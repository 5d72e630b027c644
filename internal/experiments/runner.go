package experiments

import "kelp/internal/pool"

// The evaluation is a grid of independent scenario cells: every cell builds
// a fresh node (with its own seeded RNG streams), runs it, and reads its
// counters, so cells never share mutable state. The studies exploit that by
// fanning cells out with pool.Collect, a bounded worker pool, while
// keeping the output byte-identical to a serial sweep: results are
// collected by input index, so ordering — the only thing concurrency could
// perturb — is restored.

// DefaultParallelism is the worker count used when a caller does not
// request an explicit one: the Go runtime's available parallelism.
func DefaultParallelism() int { return pool.DefaultParallelism() }
