package node

import (
	"fmt"
	"reflect"
	"testing"

	"kelp/internal/cpu"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// runCounter stands between a node and its engine. It counts the StepN
// calls the engine makes and the ticks it hands over in them, how many of
// those ticks ran in multi-tick runs, the offer passes the node made, the
// calls that made more than one, the offers it asked for to confirm a
// reoffer, and the calls that started after a reoffer and found every
// offer unchanged (wasted: the run before could have gone on).
type runCounter struct {
	*Node
	calls, ticks, batched int
	offers, multiOffer    int
	confirms, wasted      int
	prev                  []workload.Offer
}

func (c *runCounter) StepN(now sim.Time, dt sim.Duration, deadline, due sim.Time) int {
	before := c.offers
	afterReoffer := c.Node.stale && c.Node.unchanged()
	c.prev = append(c.prev[:0], c.Node.prevOffers...)
	k := c.Node.StepN(now, dt, deadline, due)
	c.calls++
	c.ticks += k
	if k > 1 {
		c.batched += k
	}
	if c.offers-before > 1 {
		c.multiOffer++
	}
	if afterReoffer && reflect.DeepEqual(c.Node.scratchOffers[:len(c.Node.tasks)], c.prev) {
		c.wasted++
	}
	return k
}

// offerCounter wraps a task and counts its Offer calls: those into the
// node's confirm slot in confirms, the others, when passes is set, in
// passes. The node asks every task once per offer pass, so on a node's
// first task passes counts offer passes.
type offerCounter struct {
	workload.Task
	node             *Node
	passes, confirms *int
}

func (o offerCounter) Offer(now, cores float64, off *workload.Offer) float64 {
	if off == &o.node.confirmed {
		*o.confirms++
	} else if o.passes != nil {
		*o.passes++
	}
	return o.Task.Offer(now, cores, off)
}

// horizonNode builds tier case tc behind a runCounter. With a nonzero
// period, a controller fires every period and cycles through tc's
// actuations: shrink the group, turn a prefetcher off, restore the group,
// turn it back on. inside counts the firings that landed while the node
// was inside a horizon.
func horizonNode(t *testing.T, tc tierCase, noInc bool, period sim.Duration) (n *Node, rc *runCounter, inside *int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NoIncremental = noInc
	n = MustNew(cfg)
	rc = &runCounter{Node: n}
	n.engine.SetStepper(rc)
	tc.build(t, n)
	for i, bt := range n.tasks {
		oc := offerCounter{Task: bt.task, node: n, confirms: &rc.confirms}
		if i == 0 {
			oc.passes = &rc.offers
		}
		bt.task = oc
	}
	inside = new(int)
	if period == 0 {
		return n, rc, inside
	}
	g, err := n.Cgroups().Group(tc.shrink)
	if err != nil {
		t.Fatal(err)
	}
	full := append(cpu.Set(nil), g.CPUs()...)
	acts := []func() error{
		func() error { return n.Cgroups().SetCPUs(tc.shrink, tc.to) },
		func() error { return n.Processor().SetPrefetch(tc.to[0], false) },
		func() error { return n.Cgroups().SetCPUs(tc.shrink, full) },
		func() error { return n.Processor().SetPrefetch(tc.to[0], true) },
	}
	fired := 0
	if err := n.engine.AddController("actuate", period, sim.ControlFunc(func(now sim.Time) {
		if n.withinHorizon(now) {
			*inside++
		}
		if err := acts[fired%len(acts)](); err != nil {
			t.Fatal(err)
		}
		fired++
	})); err != nil {
		t.Fatal(err)
	}
	return n, rc, inside
}

// TestTickTierHorizonRun pins that horizon runs never change observable
// behaviour. Each tier case, with a controller actuating mid-horizon, is
// driven through Node.Run in irregular chunks (1 tick, 7 ticks, 2371 ticks,
// and a chunk ending between ticks). It must match bit for bit a
// NoIncremental node ticked one tick at a time, and the same node run to
// the same end in one Run call, which pins split-invariance. Most ticks
// must run inside multi-tick runs, or the test would not reach the
// batched path.
func TestTickTierHorizonRun(t *testing.T) {
	// Not a multiple of any burst, phase or chunk length, so firings land
	// both inside horizons and on their edges.
	const period = 233.7 * sim.Millisecond
	step := DefaultConfig().Step
	chunks := []sim.Duration{1 * step, 7 * step, 2371 * step, 2.5 * step}
	for _, tc := range tierCases() {
		t.Run(tc.name, func(t *testing.T) {
			chunked, rc, inside := horizonNode(t, tc, false, period)
			// clock is an engine with no stepper, so it ticks one at a
			// time: every chunk must end on its tick, not past it.
			clock := sim.MustEngine(step, 1)
			for range 4 {
				for _, d := range chunks {
					chunked.Run(d)
					clock.Run(d)
					if chunked.Now() != clock.Now() {
						t.Fatalf("Run(%v) ended at %v, want %v", d, chunked.Now(), clock.Now())
					}
				}
			}
			whole, _, _ := horizonNode(t, tc, false, period)
			whole.Run(chunked.Now())
			ref, _, _ := horizonNode(t, tc, true, period)
			for range chunked.Engine().Steps() {
				ref.engine.Tick()
			}

			got, want := statsOf(chunked), statsOf(ref)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("chunked horizon runs diverged from a NoIncremental node ticked one at a time:\n got: %+v\nwant: %+v", got, want)
			}
			if w := statsOf(whole); !reflect.DeepEqual(got, w) {
				t.Errorf("chunked runs diverged from one Run to the same end:\n got: %+v\nwant: %+v", got, w)
			}
			if rc.batched*2 <= rc.ticks {
				t.Errorf("%d of %d ticks ran inside multi-tick runs, want most", rc.batched, rc.ticks)
			}
			if *inside == 0 {
				t.Error("no actuation landed inside a horizon")
			}
		})
	}
}

// TestOfferPassStartsRun pins that an offer pass starts a run, and that a
// run ends only where an offer changed. With no controller and no deadline
// in range, each StepN call makes exactly one offer pass: a call ends only
// where the offers may have changed, and a full or offer-compare tick runs
// on into the horizon ticks after it instead of returning. A reoffer that
// leaves every offer unchanged does not end the run, so no call that starts
// after a reoffer finds every offer unchanged; the node asks the reoffering
// tasks for offers to confirm that, apart from the offer passes. A
// NoIncremental node makes one offer pass per tick and never confirms.
func TestOfferPassStartsRun(t *testing.T) {
	for _, tc := range tierCases() {
		for _, noInc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s noinc=%v", tc.name, noInc), func(t *testing.T) {
				n, rc, _ := horizonNode(t, tc, noInc, 0)
				n.Run(500 * sim.Millisecond)
				if rc.multiOffer != 0 {
					t.Errorf("%d of %d StepN calls made more than one offer pass", rc.multiOffer, rc.calls)
				}
				if rc.calls != rc.offers {
					t.Errorf("%d StepN calls made %d offer passes, want one each", rc.calls, rc.offers)
				}
				if rc.wasted != 0 {
					t.Errorf("%d of %d StepN calls started after a reoffer and found every offer unchanged", rc.wasted, rc.calls)
				}
				if noInc {
					if rc.calls != rc.ticks {
						t.Errorf("NoIncremental node took %d ticks in %d calls, want one each", rc.ticks, rc.calls)
					}
					if rc.confirms != 0 {
						t.Errorf("NoIncremental node asked for %d offers to confirm a reoffer, want none", rc.confirms)
					}
					return
				}
				if rc.batched*2 <= rc.ticks {
					t.Errorf("%d of %d ticks ran inside multi-tick runs, want most", rc.batched, rc.ticks)
				}
				if len(n.ticked) > 0 && rc.confirms == 0 {
					t.Error("no reoffer was confirmed; the case must reach the confirm")
				}
			})
		}
	}
}

// FuzzHorizonRunSplit checks split-invariance of horizon runs on a tier
// case, with a fuzzed controller period and a fuzzed split of the run into
// Run chunks: the node must match bit for bit a NoIncremental node ticked
// one tick at a time.
func FuzzHorizonRunSplit(f *testing.F) {
	f.Add(uint8(0), uint16(233), []byte{0, 6, 215, 1})
	f.Add(uint8(1), uint16(1), []byte{255, 3, 3, 90})
	f.Add(uint8(2), uint16(4999), []byte{17})
	f.Add(uint8(3), uint16(60), []byte{0, 0, 0, 200, 200})
	f.Fuzz(func(t *testing.T, which uint8, period uint16, split []byte) {
		cases := tierCases()
		tc := cases[int(which)%len(cases)]
		step := DefaultConfig().Step
		// Periods of 1 to 500 ticks, a third of them between ticks.
		p := float64(period%500+1) * step
		if period/500%3 == 0 {
			p += 0.37 * step
		}
		n, _, _ := horizonNode(t, tc, false, p)
		// Each byte is a chunk of 1 to 2806 ticks, ending between ticks
		// when odd; the whole run is capped at 4000 ticks. Every chunk
		// must end where an engine ticking one at a time would.
		clock := sim.MustEngine(step, 1)
		for _, b := range split {
			if n.Engine().Steps() >= 4000 {
				break
			}
			d := float64(int(b)*11+1) * step
			if b%2 == 1 {
				d -= 0.5 * step
			}
			n.Run(d)
			clock.Run(d)
			if n.Now() != clock.Now() {
				t.Fatalf("Run(%v) ended at %v, want %v", d, n.Now(), clock.Now())
			}
		}
		ref, _, _ := horizonNode(t, tc, true, p)
		for range n.Engine().Steps() {
			ref.engine.Tick()
		}
		if got, want := statsOf(n), statsOf(ref); !reflect.DeepEqual(got, want) {
			t.Errorf("%s, period %v, split %v: horizon runs diverged from per-tick Tick:\n got: %+v\nwant: %+v", tc.name, p, split, got, want)
		}
	})
}
