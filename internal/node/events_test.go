package node

import (
	"bytes"
	"testing"

	"kelp/internal/cgroup"
	"kelp/internal/events"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// TestRecorderAttachedInsideHorizon pins the initial edges a recorder sees
// when it is attached while the node is within its horizon. A distressed
// colocation of loops that never re-offer stays within the horizon, so its
// first tick after the attach makes no offer pass; its Resolve must still
// run the memory system's transition emitter. The events, as JSONL, must
// equal those of a NoIncremental node attached at the same tick.
func TestRecorderAttachedInsideHorizon(t *testing.T) {
	build := func(noInc bool) *Node {
		cfg := DefaultConfig()
		cfg.NoIncremental = noInc
		n := MustNew(cfg)
		for i, name := range []string{"hog0", "hog1"} {
			cores := make([]int, 8)
			for c := range cores {
				cores[c] = 8*i + c
			}
			l := must(workload.NewLoop(name, workload.LoopConfig{
				Threads:  len(cores),
				UnitWork: 1e-3,
				Mem:      workload.MemProfile{StreamBWPerCore: 12 * workload.GB, BWSensitivity: 0.5},
			}))
			addTask(t, n, l, name, cgroup.Low, cores)
		}
		return n
	}
	inc, ref := build(false), build(true)
	for _, n := range []*Node{inc, ref} {
		n.Run(50 * sim.Millisecond)
	}
	if !inc.withinHorizon(inc.Now()) {
		t.Fatal("the colocation left its horizon; the attach must land inside one")
	}
	jsonl := func(n *Node) []byte {
		rec := events.MustNew(1 << 10)
		n.SetEvents(rec)
		n.Run(50 * sim.Millisecond)
		var b bytes.Buffer
		if err := events.WriteJSONL(&b, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	got, want := jsonl(inc), jsonl(ref)
	if !bytes.Contains(want, []byte(events.DistressAssert)) {
		t.Fatalf("the colocation asserts no distress; the test needs initial edges:\n%s", want)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recorder attached inside a horizon saw other events than on a NoIncremental node:\n got: %s\nwant: %s", got, want)
	}
}
