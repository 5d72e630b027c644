package memsys

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"kelp/internal/events"
)

// resolutionBits gob-encodes a resolution's results, which moves every
// float by bit pattern, with the computation stamp left out.
func resolutionBits(t *testing.T, r *Resolution) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := resolutionWire{
		Flows: r.Flows, Controllers: r.Controllers,
		SocketBackpressure: r.SocketBackpressure, SocketSnoop: r.SocketSnoop,
		Links: r.Links, CPS: r.cps,
	}
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// memoFlowSets returns mixedFlows, then its variants that each change one
// field of one flow, floats by one step where that changes the result,
// then n random flow
// sets of zero to four flows, with demands that put controllers on both
// sides of the distress threshold and of saturation.
func memoFlowSets(rng *rand.Rand, n int) [][]Flow {
	sets := [][]Flow{mixedFlows()}
	for _, mut := range []func(f *Flow){
		func(f *Flow) { f.DemandBW = math.Nextafter(f.DemandBW, 0) },
		func(f *Flow) { f.RemoteFrac = math.Nextafter(f.RemoteFrac, 1) },
		func(f *Flow) { f.LLCFootprint += 1e6 },
		func(f *Flow) { f.LLCRefBW = math.Nextafter(f.LLCRefBW, 0) },
		func(f *Flow) { f.LLCWayMask = 0x7 },
		func(f *Flow) { f.Socket = 1 - f.Socket },
		func(f *Flow) { f.Subdomain = 1 - f.Subdomain },
		func(f *Flow) { f.HighPriority = !f.HighPriority },
		func(f *Flow) { f.Task = "other" },
	} {
		v := mixedFlows()
		mut(&v[0])
		sets = append(sets, v)
	}
	for range n {
		var set []Flow
		for j := range rng.Intn(5) {
			set = append(set, Flow{
				Task:         string(rune('a' + j)),
				Socket:       rng.Intn(2),
				Subdomain:    rng.Intn(2),
				DemandBW:     float64(rng.Intn(80)) * GB,
				RemoteFrac:   float64(rng.Intn(3)) / 2,
				LLCFootprint: float64(rng.Intn(4)) * 16e6,
				LLCRefBW:     float64(rng.Intn(3)) * GB,
				LLCWayMask:   uint64(rng.Intn(2)) * 0xf,
				HighPriority: rng.Intn(2) == 0,
			})
		}
		sets = append(sets, set)
	}
	return sets
}

// TestResolveMemoMatchesFresh walks one System through a seeded series of
// more distinct flow sets than it has slots, with SNC and fine-grained QoS
// flips, among them flow sets one field apart, and pins the memo against
// three references:
//   - every result is bitwise what a fresh System with the same
//     configuration computes;
//   - a flow set among the last memoSlots distinct (flow set, epoch) pairs
//     returns that pair's resolution, same pointer and Seq; any other
//     recomputes under the next Seq;
//   - the distress and saturation events equal those of a System whose
//     memo is emptied before every call, so that it always recomputes.
func TestResolveMemoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := memoFlowSets(rng, 2*memoSlots)
	memo, always := MustSystem(DefaultConfig()), MustSystem(DefaultConfig())
	memoRec, alwaysRec := events.MustNew(1<<14), events.MustNew(1<<14)
	now := 0.0
	memo.SetEvents(memoRec, func() float64 { return now })
	always.SetEvents(alwaysRec, func() float64 { return now })

	type key struct {
		set   int
		epoch uint64
	}
	type seen struct {
		res *Resolution
		seq uint64
	}
	var recent []key // distinct keys, most recent first
	got := map[key]seen{}
	var seq uint64
	hits, misses := 0, 0
	for step := range 4000 {
		now = float64(step)
		switch rng.Intn(40) {
		case 0:
			on := !memo.Config().SNCEnabled
			memo.SetSNC(on)
			always.SetSNC(on)
		case 1:
			on := !memo.Config().FineGrainedQoS
			memo.SetFineGrainedQoS(on)
			always.SetFineGrainedQoS(on)
		}
		// Favour mixedFlows and its variants, which outnumber the slots,
		// so that hits, evictions and near misses all occur.
		i := rng.Intn(len(sets))
		if rng.Intn(3) > 0 {
			i = rng.Intn(10)
		}
		flows := sets[i]
		// Equal sets are one set to the memo: key on the first of them.
		for j := range i {
			if sameFlows(sets[j], flows) {
				i = j
				break
			}
		}
		k := key{i, memo.Epoch()}
		wantHit := false
		for j, r := range recent {
			if r == k {
				wantHit = j < memoSlots
				recent = append(recent[:j], recent[j+1:]...)
				break
			}
		}
		recent = append([]key{k}, recent...)

		res, err := memo.Resolve(flows)
		if err != nil {
			t.Fatal(err)
		}
		if wantHit {
			hits++
			if prev := got[k]; res != prev.res || res.Seq() != prev.seq {
				t.Fatalf("step %d: remembered set %d returned %p seq %d, want %p seq %d",
					step, i, res, res.Seq(), prev.res, prev.seq)
			}
		} else {
			misses++
			if seq++; res.Seq() != seq {
				t.Fatalf("step %d: recompute of set %d stamped seq %d, want %d", step, i, res.Seq(), seq)
			}
		}
		got[k] = seen{res, res.Seq()}
		if memo.Last() != res {
			t.Fatalf("step %d: Last is not the returned resolution", step)
		}

		fresh, err := MustSystem(memo.Config()).Resolve(flows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resolutionBits(t, res), resolutionBits(t, fresh)) {
			t.Fatalf("step %d: set %d resolved to\n %+v\nfresh system:\n %+v", step, i, res, fresh)
		}

		for j := range always.arena.slots {
			always.arena.slots[j].used = 0
		}
		if _, err := always.Resolve(flows); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d hits, %d misses, %d events", hits, misses, len(memoRec.Since(0)))
	if hits < 1000 || misses < 1000 {
		t.Fatalf("walk made %d hits and %d misses; want both >= 1000", hits, misses)
	}
	if got, want := memoRec.Since(0), alwaysRec.Since(0); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("memo events (%d) differ from always-recompute events (%d)", len(got), len(want))
	}
}

// TestResolveMemoHit pins the memo at the edges of one flow set's life.
// A repeated Resolve returns the remembered resolution, the same pointer
// with the same Seq, whose contents are what a fresh System computes; a
// first Resolve, a configuration change and a new flow set recompute
// under the next Seq; a failed Resolve remembers nothing and leaves the
// remembered set and Last as they were.
func TestResolveMemoHit(t *testing.T) {
	flows := mixedFlows()
	resolve := func(t *testing.T, s *System, fl []Flow) *Resolution {
		t.Helper()
		r, err := s.Resolve(fl)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hit := func(t *testing.T, s *System, want *Resolution) {
		t.Helper()
		seq := want.Seq()
		if got := resolve(t, s, flows); got != want || got.Seq() != seq {
			t.Fatalf("repeat = %p seq %d, want %p seq %d", got, got.Seq(), want, seq)
		}
		if s.Last() != want {
			t.Fatal("Last is not the remembered resolution")
		}
	}

	t.Run("matches Resolve", func(t *testing.T) {
		s := MustSystem(DefaultConfig())
		r := resolve(t, s, flows)
		want := resolutionBits(t, resolve(t, MustSystem(DefaultConfig()), flows))
		for i := 0; i < 3; i++ {
			hit(t, s, r)
			if !bytes.Equal(resolutionBits(t, r), want) {
				t.Fatalf("repeat %d diverged from a fresh Resolve\n got: %+v", i, r)
			}
		}
	})
	t.Run("before first Resolve", func(t *testing.T) {
		s := MustSystem(DefaultConfig())
		if s.Last() != nil {
			t.Fatal("Last is set before the first Resolve")
		}
		if r := resolve(t, s, flows); r.Seq() != 1 {
			t.Fatalf("first Resolve stamped seq %d, want 1", r.Seq())
		}
	})
	t.Run("epoch bump", func(t *testing.T) {
		s := MustSystem(DefaultConfig())
		r := resolve(t, s, flows)
		seq := r.Seq()
		s.SetSNC(true)
		if got := resolve(t, s, flows); got.Seq() != seq+1 {
			t.Fatalf("Resolve after SetSNC stamped seq %d, want a recompute at %d", got.Seq(), seq+1)
		}
		// The flip back is a new epoch too: the set remembered under the
		// first epoch is not reused.
		s.SetSNC(false)
		if got := resolve(t, s, flows); got.Seq() != seq+2 {
			t.Fatalf("Resolve after the flip back stamped seq %d, want a recompute at %d", got.Seq(), seq+2)
		}
	})
	t.Run("failed Resolve", func(t *testing.T) {
		s := MustSystem(DefaultConfig())
		r := resolve(t, s, flows)
		bad := []Flow{{Task: "bad", Socket: 99}}
		for i := 0; i < 2; i++ {
			if got, err := s.Resolve(bad); err == nil || got != nil {
				t.Fatalf("invalid flow set %d: Resolve = %p, %v; want nil and an error", i, got, err)
			}
			if s.Last() != r {
				t.Fatal("a failed Resolve replaced Last")
			}
		}
		hit(t, s, r)
	})
	t.Run("seq mismatch", func(t *testing.T) {
		s := MustSystem(DefaultConfig())
		r := resolve(t, s, flows)
		other := resolve(t, s, []Flow{{Task: "x", Socket: 1, DemandBW: 10 * GB}})
		if other == r || other.Seq() != r.Seq()+1 {
			t.Fatalf("another flow set returned %p seq %d after %p seq %d; want a recompute", other, other.Seq(), r, r.Seq())
		}
		hit(t, s, r)
	})
}

// TestResolveMemoHitEvents pins that a memo hit emits transitions exactly
// as a recompute of the same flows does: a recorder attached after the
// first Resolve observes the initial edges on the next hit, and steady
// hits emit nothing.
func TestResolveMemoHitEvents(t *testing.T) {
	cfg := DefaultConfig()
	flows := []Flow{{Task: "hog", Socket: 0, DemandBW: 4 * cfg.SocketBW()}}
	run := func(forget bool) []events.Event {
		s := MustSystem(cfg)
		first, err := s.Resolve(flows)
		if err != nil {
			t.Fatal(err)
		}
		seq := first.Seq()
		rec := events.MustNew(64)
		now := 0.0
		s.SetEvents(rec, func() float64 { return now })
		for ; now < 3; now++ {
			if forget {
				for j := range s.arena.slots {
					s.arena.slots[j].used = 0
				}
			}
			r, err := s.Resolve(flows)
			if err != nil {
				t.Fatal(err)
			}
			if hit := r == first && r.Seq() == seq; hit == forget {
				t.Fatalf("step %v: memo hit %v with the memo forgotten %v", now, hit, forget)
			}
		}
		return rec.Since(0)
	}
	hits, recomputes := run(false), run(true)
	if len(hits) == 0 {
		t.Fatal("recorder attached after the first Resolve saw no initial transitions on a memo hit")
	}
	if !reflect.DeepEqual(hits, recomputes) {
		t.Fatalf("memo hit events differ from a recompute's:\nhits:       %+v\nrecomputes: %+v", hits, recomputes)
	}
}
