package memsys

import "testing"

// BenchmarkResolve measures the per-step cost of a memory-system
// resolution recompute with a realistic flow count — the inner loop of
// every experiment in this repository.
func BenchmarkResolve(b *testing.B) {
	cfg := DefaultConfig()
	cfg.SNCEnabled = true
	benchRecompute(b, MustSystem(cfg), benchFlows())
}

// benchFlows is the benchmarks' realistic five-flow colocation.
func benchFlows() []Flow {
	return []Flow{
		{Task: "ml", Socket: 0, Subdomain: 0, DemandBW: 3 * GB, LLCFootprint: 8e6, LLCRefBW: 4 * GB, LLCWayMask: 0xf, HighPriority: true},
		{Task: "bf", Socket: 0, Subdomain: 0, DemandBW: 10 * GB, LLCFootprint: 6e6, LLCRefBW: 2 * GB},
		{Task: "lo1", Socket: 0, Subdomain: 1, DemandBW: 30 * GB, LLCFootprint: 64e6},
		{Task: "lo2", Socket: 0, Subdomain: 1, DemandBW: 20 * GB, LLCFootprint: 16e6, LLCRefBW: 3 * GB},
		{Task: "rem", Socket: 1, Subdomain: 0, DemandBW: 15 * GB, RemoteFrac: 0.5},
	}
}

// missCycle steps flows[0].DemandBW to the i-th of memoSlots+1 values. A
// System remembers memoSlots flow sets, so resolving the values in turn
// misses the memo on every call and recomputes the fixed point.
func missCycle(flows []Flow, base float64, i int) {
	flows[0].DemandBW = base * (1 + float64(i%(memoSlots+1))/64)
}

// benchRecompute times Resolve of flows on s with every call a recompute
// (missCycle), after one pass over the cycle has grown every slot's
// buffers.
func benchRecompute(b *testing.B, s *System, flows []Flow) {
	base := flows[0].DemandBW
	for i := range memoSlots + 1 {
		missCycle(flows, base, i)
		if _, err := s.Resolve(flows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missCycle(flows, base, i)
		if _, err := s.Resolve(flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveFineGrained measures the priority-scheduling variant.
func BenchmarkResolveFineGrained(b *testing.B) {
	cfg := DefaultConfig()
	cfg.FineGrainedQoS = true
	s := MustSystem(cfg)
	flows := []Flow{
		{Task: "ml", Socket: 0, DemandBW: 5 * GB, HighPriority: true},
		{Task: "lo", Socket: 0, DemandBW: 100 * GB},
	}
	benchRecompute(b, s, flows)
}

// BenchmarkResolveLLCOnly isolates the way-partitioned cache model.
func BenchmarkResolveLLCOnly(b *testing.B) {
	cfg := DefaultConfig()
	flows := []Flow{
		{Task: "a", Socket: 0, LLCFootprint: 10e6, LLCRefBW: 5 * GB, LLCWayMask: 0xf},
		{Task: "b", Socket: 0, LLCFootprint: 30e6, LLCRefBW: 8 * GB, LLCWayMask: 0x7f0},
		{Task: "c", Socket: 0, LLCFootprint: 90e6, LLCRefBW: 2 * GB},
	}
	idx := []int{0, 1, 2}
	hits := make([]float64, len(flows))
	var a arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolveLLC(&cfg, flows, idx, hits, &a)
	}
}

// BenchmarkResolveSteady measures the steady-state cost of a full Resolve
// recompute — the innermost loop of every experiment cell — after the
// scratch arena has grown to the flow-set shape. One field of the five
// flows steps through more values than the memo has slots, so every call
// recomputes. The acceptance bar is 0 allocs/op (also pinned hard by
// TestResolveSteadyStateAllocs).
func BenchmarkResolveSteady(b *testing.B) {
	cfg := DefaultConfig()
	cfg.SNCEnabled = true
	benchRecompute(b, MustSystem(cfg), benchFlows())
}

// BenchmarkResolveHit measures the memo path: Resolve of a flow set the
// System remembers, which compares flows and returns the remembered fixed
// point.
func BenchmarkResolveHit(b *testing.B) {
	cfg := DefaultConfig()
	cfg.SNCEnabled = true
	s := MustSystem(cfg)
	flows := benchFlows()
	if _, err := s.Resolve(flows); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Resolve(flows); err != nil {
			b.Fatal(err)
		}
	}
}
