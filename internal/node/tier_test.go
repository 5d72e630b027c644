package node

import (
	"fmt"
	"reflect"
	"testing"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
	"kelp/internal/cpu"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// addTask registers t in a fresh cgroup pinned to cores.
func addTask(t *testing.T, n *Node, task workload.Task, group string, prio cgroup.Priority, cores []int) {
	t.Helper()
	if _, err := n.Cgroups().Create(group, prio); err != nil {
		t.Fatal(err)
	}
	if err := n.Cgroups().SetCPUs(group, cores); err != nil {
		t.Fatal(err)
	}
	if err := n.AddTask(task, group); err != nil {
		t.Fatal(err)
	}
}

// must unwraps a constructor's result; the tier cases build only valid
// tasks.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// runTiers advances n by ticks steps and returns how many of them took the
// horizon tier, skipping the offer pass.
func runTiers(n *Node, ticks int) (horizon int) {
	for range ticks {
		if n.withinHorizon(n.Now()) {
			horizon++
		}
		n.engine.Tick()
	}
	return horizon
}

// tierCase is a colocation for the tick-tier equivalence tests. build
// registers its tasks; shrink names a group and the smaller CPU set an
// actuation moves it to mid-run.
type tierCase struct {
	name   string
	build  func(t *testing.T, n *Node)
	shrink string
	to     []int
}

func tierCases() []tierCase {
	return []tierCase{
		{
			// Two desynchronized Stitch instances timesharing one cgroup, and
			// a CPUML job: each crosses a burst edge every few hundred ticks.
			name: "bursting loops",
			build: func(t *testing.T, n *Node) {
				if _, err := n.Cgroups().Create("stitch", cgroup.Low); err != nil {
					t.Fatal(err)
				}
				if err := n.Cgroups().SetCPUs("stitch", []int{4, 5, 6, 7, 8, 9}); err != nil {
					t.Fatal(err)
				}
				for i := range 2 {
					if err := n.AddTask(must(workload.NewStitch(i)), "stitch"); err != nil {
						t.Fatal(err)
					}
				}
				addTask(t, n, must(workload.NewCPUML(4)), "cpuml", cgroup.Low, []int{10, 11, 12, 13})
			},
			shrink: "stitch", to: []int{4, 5, 6},
		},
		{
			// CNN1 alternates host in-feed and accelerator phases; CNN3 adds
			// transfer phases. Both re-offer on every phase change.
			name: "training",
			build: func(t *testing.T, n *Node) {
				plat := accel.NewCloudTPU()
				addTask(t, n, must(workload.NewCNN1(plat)), "cnn1", cgroup.High, []int{0, 1, 2, 3, 4, 5, 6, 7})
				addTask(t, n, must(workload.NewCNN3(plat)), "cnn3", cgroup.High, []int{8, 9, 10, 11})
				addTask(t, n, must(workload.NewStitch(0)), "stitch", cgroup.Low, []int{12, 13, 14, 15})
			},
			shrink: "cnn1", to: []int{0, 1},
		},
		{
			// An open-loop server with jittered arrivals: requests enter and
			// leave their CPU phase at irregular ticks.
			name: "jittered inference",
			build: func(t *testing.T, n *Node) {
				dev := must(accel.NewDevice(accel.NewTPU()))
				cfg := must(workload.NewRNN1(dev, nil)).Config()
				cfg.ClosedLoop = false
				rng := n.Engine().RNG().Stream("rnn1")
				addTask(t, n, must(workload.NewInference("RNN1", dev, cfg, rng)), "rnn1", cgroup.High, []int{0, 1, 2, 3})
				addTask(t, n, must(workload.NewCPUML(4)), "cpuml", cgroup.Low, []int{8, 9, 10, 11})
			},
			shrink: "rnn1", to: []int{0},
		},
		{
			// A pipelined in-feed whose producer outruns the accelerator, so
			// the buffer fills; shrinking its cores makes it drain.
			name: "pipelined",
			build: func(t *testing.T, n *Node) {
				p := must(workload.PipelinedCNN1(accel.NewCloudTPU()))
				addTask(t, n, p, "pipe", cgroup.High, []int{0, 1, 2, 3, 4, 5, 6, 7})
				addTask(t, n, must(workload.NewCPUML(4)), "cpuml", cgroup.Low, []int{8, 9, 10, 11})
			},
			shrink: "pipe", to: []int{0},
		},
	}
}

// TestTickTierEquivalence pins that the horizon tier never changes
// observable behaviour: for tasks whose offers change at burst edges, on
// phase changes, on request arrivals and on buffer fills, a node with every
// fast path on stays byte-identical to a NoIncremental node, through cgroup
// and prefetcher actuations mid-run. Each case must actually take the
// horizon tier, and some actuation must land inside a horizon.
func TestTickTierEquivalence(t *testing.T) {
	// Ticks between actuations: not a multiple of any burst period, so the
	// actuations fall both inside horizons and on their edges.
	const gap = 2371
	for _, tc := range tierCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := func(noInc bool) (st nodeStats, skipped, inside int) {
				cfg := DefaultConfig()
				cfg.NoIncremental = noInc
				n := MustNew(cfg)
				tc.build(t, n)
				g, err := n.Cgroups().Group(tc.shrink)
				if err != nil {
					t.Fatal(err)
				}
				full := append(cpu.Set(nil), g.CPUs()...)
				for _, act := range []func() error{
					func() error { return n.Cgroups().SetCPUs(tc.shrink, tc.to) },
					func() error { return n.Processor().SetPrefetch(tc.to[0], false) },
					func() error { return n.Cgroups().SetCPUs(tc.shrink, full) },
					func() error { return n.Processor().SetPrefetch(tc.to[0], true) },
				} {
					skipped += runTiers(n, gap)
					if n.withinHorizon(n.Now()) {
						inside++
					}
					if err := act(); err != nil {
						t.Fatal(err)
					}
				}
				skipped += runTiers(n, gap)
				return statsOf(n), skipped, inside
			}
			inc, skipped, inside := run(false)
			cold, _, _ := run(true)
			if !reflect.DeepEqual(inc, cold) {
				t.Errorf("horizon-tier node diverged from NoIncremental node:\n got: %+v\nwant: %+v", inc, cold)
			}
			if skipped == 0 || skipped == 5*gap {
				t.Errorf("%d of %d ticks took the horizon tier; the case must take it and leave it", skipped, 5*gap)
			}
			if inside == 0 {
				t.Error("no actuation landed inside a horizon")
			}
		})
	}
}

// TestPipelinedBufferCycles checks the pipelined tier case does what it
// claims: its buffer is full at some ticks and not full at others, before
// and after the actuation.
func TestPipelinedBufferCycles(t *testing.T) {
	var tc tierCase
	for _, c := range tierCases() {
		if c.name == "pipelined" {
			tc = c
		}
	}
	n := newNode(t)
	tc.build(t, n)
	task, err := n.Task("CNN1-pipelined")
	if err != nil {
		t.Fatal(err)
	}
	p := task.(*workload.Pipelined)
	crossings := func(ticks int) int {
		c, wasFull := 0, p.Buffered() >= 2
		for range ticks {
			n.engine.Tick()
			if full := p.Buffered() >= 2; full != wasFull {
				c++
				wasFull = full
			}
		}
		return c
	}
	if c := crossings(4000); c < 2 {
		t.Errorf("buffer crossed full %d times before the actuation, want it to fill and drain", c)
	}
	if err := n.Cgroups().SetCPUs(tc.shrink, tc.to); err != nil {
		t.Fatal(err)
	}
	if c := crossings(4000); c < 1 {
		t.Errorf("buffer crossed full %d times after the actuation, want it to drain", c)
	}
}

// TestTickTierRestoreMidHorizon pins that restoring a snapshot disables the
// horizon tier: a node snapshotted while inside every task's horizon, run
// on into different offers and then rewound onto that snapshot, measures
// byte-identically to a NoIncremental node that never rewound.
func TestTickTierRestoreMidHorizon(t *testing.T) {
	build := func(noInc bool) *Node {
		cfg := DefaultConfig()
		cfg.NoIncremental = noInc
		n := MustNew(cfg)
		addTask(t, n, must(workload.NewCNN1(accel.NewCloudTPU())), "cnn1", cgroup.High, []int{0, 1, 2, 3, 4, 5, 6, 7})
		for i := range 2 {
			addTask(t, n, must(workload.NewStitch(i)), fmt.Sprint("stitch", i), cgroup.Low, []int{8 + 4*i, 9 + 4*i, 10 + 4*i, 11 + 4*i})
		}
		return n
	}
	const measure = 300 * sim.Millisecond

	ref := build(true)
	inc := build(false)
	// Warm both to the same tick, stopping where inc is inside its horizon.
	for range 1000 {
		ref.engine.Tick()
		inc.engine.Tick()
	}
	for !inc.withinHorizon(inc.Now()) {
		ref.engine.Tick()
		inc.engine.Tick()
	}
	snap := inc.Snapshot()
	// Run past burst edges and phase changes, then rewind.
	inc.Run(70 * sim.Millisecond)
	if err := inc.Restore(snap); err != nil {
		t.Fatal(err)
	}

	ref.StartMeasurement()
	ref.Run(measure)
	inc.StartMeasurement()
	inc.Run(measure)
	if got, want := statsOf(inc), statsOf(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("rewound node diverged from NoIncremental node:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestTickTierTaskSetChange pins that adding or removing a task disables
// the horizon tier even when no cgroup changes: a task joins an existing
// group inside a horizon, and later another leaves inside one, and the node
// stays byte-identical to a NoIncremental node stepped in lockstep.
func TestTickTierTaskSetChange(t *testing.T) {
	build := func(noInc bool) *Node {
		cfg := DefaultConfig()
		cfg.NoIncremental = noInc
		n := MustNew(cfg)
		tierCases()[0].build(t, n)
		return n
	}
	inc, ref := build(false), build(true)
	both := func(f func(n *Node) error) {
		for _, n := range []*Node{inc, ref} {
			if err := f(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	tick := func(n *Node) error { n.engine.Tick(); return nil }
	// untilInside steps both nodes past a few burst edges, then on until
	// the incremental node is inside a horizon.
	untilInside := func() {
		for range 1500 {
			both(tick)
		}
		for !inc.withinHorizon(inc.Now()) {
			both(tick)
		}
	}
	untilInside()
	both(func(n *Node) error { return n.AddTask(must(workload.NewStitch(7)), "cpuml") })
	untilInside()
	both(func(n *Node) error { return n.RemoveTask("Stitch-0") })
	both(func(n *Node) error { n.Run(150 * sim.Millisecond); return nil })
	if got, want := statsOf(inc), statsOf(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("node diverged across a task-set change:\n got: %+v\nwant: %+v", got, want)
	}
}
