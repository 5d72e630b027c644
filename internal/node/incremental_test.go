package node

import (
	"reflect"
	"testing"

	"kelp/internal/cgroup"
	"kelp/internal/memsys"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// TestIncrementalMutationEquivalence pins that skipping the offer pass
// within the horizon never changes observable behaviour: a node that skips
// it stays byte-identical to a NoIncremental node through every mutation
// that must void the cached offers and flows, or could confuse the memory
// system's memo — a prefetcher flip, a cgroup CPU-set change, a task added
// mid-run, and a foreign resolve on the node's memory system.
func TestIncrementalMutationEquivalence(t *testing.T) {
	run := func(noInc bool) nodeStats {
		cfg := DefaultConfig()
		cfg.NoIncremental = noInc
		n := benchNodeWith(t, cfg)
		n.Run(20 * sim.Millisecond)

		// Prefetcher flip on an ML core.
		if err := n.Processor().SetPrefetch(0, false); err != nil {
			t.Fatal(err)
		}
		n.Run(20 * sim.Millisecond)

		// Cgroup CPU-set shrink.
		if err := n.Cgroups().SetCPUs("lo2", []int{10}); err != nil {
			t.Fatal(err)
		}
		n.Run(20 * sim.Millisecond)

		// Task added mid-run.
		if _, err := n.Cgroups().Create("late", cgroup.Low); err != nil {
			t.Fatal(err)
		}
		if err := n.Cgroups().SetCPUs("late", []int{11}); err != nil {
			t.Fatal(err)
		}
		l, err := workload.NewLoop("late", workload.LoopConfig{
			Threads:  1,
			UnitWork: 1e-3,
			Mem:      workload.MemProfile{StreamBWPerCore: workload.GB},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddTask(l, "late"); err != nil {
			t.Fatal(err)
		}
		n.Run(20 * sim.Millisecond)

		// A foreign resolve on the node's memory system: the node's next
		// Resolve must still return its own flows' fixed point.
		if _, err := n.Memory().Resolve([]memsys.Flow{{Task: "foreign", Socket: 1, DemandBW: 50 * memsys.GB}}); err != nil {
			t.Fatal(err)
		}
		n.Run(20 * sim.Millisecond)
		return statsOf(n)
	}
	inc, cold := run(false), run(true)
	if !reflect.DeepEqual(inc, cold) {
		t.Errorf("incremental node diverged from NoIncremental node:\n got: %+v\nwant: %+v", inc, cold)
	}
}
