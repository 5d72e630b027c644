package node

import (
	"testing"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
	"kelp/internal/workload"
)

// benchNode builds a node with a realistic colocation: a high-priority
// accelerated task plus three best-effort antagonists across both sockets.
func benchNode(b testing.TB) *Node { return benchNodeWith(b, DefaultConfig()) }

// benchNodeWith is benchNode on an arbitrary configuration (the incremental
// equivalence test builds the same colocation with NoIncremental set).
func benchNodeWith(b testing.TB, cfg Config) *Node {
	return benchNodeTasks(b, cfg, func(l *workload.Loop) workload.Task { return l })
}

// reofferLoop is a Loop whose offer horizon is always now: a node running
// only reofferLoops re-offers on every tick, so a steady colocation takes
// the offer-compare (clean) tier instead of the horizon tier.
type reofferLoop struct{ *workload.Loop }

func (r reofferLoop) Offer(now, cores float64, o *workload.Offer) float64 {
	r.Loop.Offer(now, cores, o)
	return now
}

// reofferNode is benchNode with every task wrapped in a reofferLoop.
func reofferNode(b testing.TB) *Node {
	return benchNodeTasks(b, DefaultConfig(), func(l *workload.Loop) workload.Task { return reofferLoop{l} })
}

// benchNodeTasks builds benchNode's colocation on cfg, registering each
// loop as wrap returns it.
func benchNodeTasks(b testing.TB, cfg Config, wrap func(*workload.Loop) workload.Task) *Node {
	b.Helper()
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	add := func(name, group string, prio cgroup.Priority, cores []int, bw float64) {
		if _, err := n.Cgroups().Create(group, prio); err != nil {
			b.Fatal(err)
		}
		if err := n.Cgroups().SetCPUs(group, cores); err != nil {
			b.Fatal(err)
		}
		l, err := workload.NewLoop(name, workload.LoopConfig{
			Threads:  len(cores),
			UnitWork: 1e-3,
			Mem: workload.MemProfile{
				StreamBWPerCore:    bw,
				LLCFootprint:       16e6,
				LLCRefBWPerCore:    workload.GB,
				LatencySensitivity: 0.5,
				BWSensitivity:      0.5,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := n.AddTask(wrap(l), group); err != nil {
			b.Fatal(err)
		}
	}
	add("ml", "hi", cgroup.High, []int{0, 1, 2, 3}, 3*workload.GB)
	add("bf", "bf", cgroup.Low, []int{4, 5}, 2*workload.GB)
	add("lo1", "lo1", cgroup.Low, []int{6, 7, 8, 9}, 4*workload.GB)
	add("lo2", "lo2", cgroup.Low, []int{10, 11}, 2*workload.GB)
	return n
}

// BenchmarkNodeStep measures one full node pipeline tick — offer
// collection, cgroup timesharing, memory-system resolution, rate
// distribution, task advance — the 100µs inner loop of every experiment.
// NoIncremental is set so the number keeps measuring the whole pipeline
// across snapshots: without it, a steady colocation skips pipeline stages
// (BenchmarkNodeStepClean and BenchmarkNodeStepReoffer measure those).
// The steady flow set repeats, so its resolution is a memo hit in the
// memory system (BenchmarkResolveSteady times a recompute).
// Steady state must not allocate on the node/memsys side of the pipeline.
func BenchmarkNodeStep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NoIncremental = true
	n := benchNodeWith(b, cfg)
	// Warm the scratch arenas so the timed region is pure steady state.
	n.Run(10 * n.cfg.Step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.engine.Tick()
	}
}

// BenchmarkNodeStepClean measures what a steady simulation phase pays per
// 100µs step: offers, cgroup/prefetch/memory generations, and the resolved
// flow set all unchanged since the previous tick. Its non-bursting loops
// never re-offer, so every one-tick call is within the horizon and skips
// both the offer pass and Resolve (docs/PERFORMANCE.md §3).
func BenchmarkNodeStepClean(b *testing.B) {
	n := benchNode(b)
	n.Run(10 * n.cfg.Step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.engine.Tick()
	}
}

// BenchmarkNodeStepReoffer measures the offer compare: the same steady
// colocation as BenchmarkNodeStepClean, but every task's horizon is now, so
// each tick makes the offer pass and skips only flow assembly and Resolve,
// by proving every offer unchanged.
func BenchmarkNodeStepReoffer(b *testing.B) {
	n := reofferNode(b)
	n.Run(10 * n.cfg.Step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.engine.Tick()
	}
}

// BenchmarkNodeRunHorizon measures what a steady simulation phase pays per
// simulated tick when the engine hands the node whole runs: the
// same colocation as BenchmarkNodeStepClean, advanced through Node.Run.
// Each op runs 1000 ticks; the ns/tick metric is the per-tick cost.
func BenchmarkNodeRunHorizon(b *testing.B) {
	const ticks = 1000
	n := benchNode(b)
	n.Run(10 * n.cfg.Step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(ticks * n.cfg.Step)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ticks), "ns/tick")
}

// mlNode builds a colocation of the three accelerated task kinds, each in
// its own high-priority group — an RNN1 inference server, CNN1 training and
// a pipelined CNN1 trainer — plus a CPUML loop.
func mlNode(tb testing.TB) *Node {
	tb.Helper()
	n := MustNew(DefaultConfig())
	dev := must(accel.NewDevice(accel.NewTPU()))
	for _, g := range []struct {
		name  string
		prio  cgroup.Priority
		cores []int
		task  workload.Task
	}{
		{"rnn1", cgroup.High, []int{0, 1, 2, 3}, must(workload.NewRNN1(dev, n.Engine().RNG().Stream("rnn1")))},
		{"cnn1", cgroup.High, []int{4, 5, 6, 7}, must(workload.NewCNN1(accel.NewCloudTPU()))},
		{"pipe", cgroup.High, []int{8, 9, 10, 11}, must(workload.PipelinedCNN1(accel.NewCloudTPU()))},
		{"cpuml", cgroup.Low, []int{12, 13, 14, 15}, must(workload.NewCPUML(4))},
	} {
		if _, err := n.Cgroups().Create(g.name, g.prio); err != nil {
			tb.Fatal(err)
		}
		if err := n.Cgroups().SetCPUs(g.name, g.cores); err != nil {
			tb.Fatal(err)
		}
		if err := n.AddTask(g.task, g.name); err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// TestNodeStepSteadyStateAllocs pins the allocation-free node tick: after
// warmup, engine ticks (node pipeline + memsys resolve) perform zero heap
// allocations — on the whole pipeline, with the offer compare (clean) and
// within the horizon (steady) — and so does a Run that advances the steady
// colocation through runs of ticks, also with inference, training and
// pipelined tasks (ml). Each measured run is 1000 ticks:
// testing.AllocsPerRun truncates its average to an integer, so one tick per
// run would read 0 for anything allocating on fewer than every tick.
func TestNodeStepSteadyStateAllocs(t *testing.T) {
	const ticks = 1000
	noInc := DefaultConfig()
	noInc.NoIncremental = true
	tick := func(n *Node) {
		for range ticks {
			n.engine.Tick()
		}
	}
	run := func(n *Node) { n.Run(ticks * n.cfg.Step) }
	for _, tc := range []struct {
		name  string
		build func(testing.TB) *Node
		step  func(*Node)
	}{
		{"full", func(tb testing.TB) *Node { return benchNodeWith(tb, noInc) }, tick},
		{"clean", reofferNode, tick},
		{"steady", benchNode, tick},
		{"run", benchNode, run},
		{"ml", mlNode, run},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			n.Run(ticks * n.cfg.Step)
			avg := testing.AllocsPerRun(20, func() {
				tc.step(n)
			})
			if avg != 0 {
				t.Fatalf("steady-state node %s allocates %v times per %d ticks, want 0", tc.name, avg, ticks)
			}
		})
	}
}
