package memsys

import (
	"reflect"
	"testing"

	"kelp/internal/events"
)

func incrementalFlows() []Flow {
	return []Flow{
		{Task: "ml", Socket: 0, Subdomain: 0, DemandBW: 3 * GB, LLCFootprint: 8e6, LLCRefBW: 4 * GB, LLCWayMask: 0xf, HighPriority: true},
		{Task: "lo", Socket: 0, Subdomain: 1, DemandBW: 30 * GB, LLCFootprint: 64e6},
		{Task: "rem", Socket: 1, Subdomain: 0, DemandBW: 15 * GB, RemoteFrac: 0.5},
	}
}

// TestResolveShortCircuit pins the fast path: an unchanged flow set returns
// the same *Resolution pointer (no recompute, no buffer flip) with contents
// identical to a full recompute on a fresh system.
func TestResolveShortCircuit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SNCEnabled = true
	s := MustSystem(cfg)
	flows := incrementalFlows()

	r1, err := s.Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical flows did not short-circuit to the cached resolution")
	}
	want, err := MustSystem(cfg).Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(r2), normalize(want)) {
		t.Fatalf("short-circuited resolution diverged from fresh recompute\n got: %+v\nwant: %+v", r2, want)
	}
}

// TestResolveMutationRecomputes is the anti-staleness pin: flipping any
// single flow field between steps must force a recompute whose result
// matches a fresh system's, with no stale short-circuit.
func TestResolveMutationRecomputes(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(f *Flow)
	}{
		{"DemandBW", func(f *Flow) { f.DemandBW *= 1.5 }},
		{"RemoteFrac", func(f *Flow) { f.RemoteFrac = 0.8 }},
		{"LLCFootprint", func(f *Flow) { f.LLCFootprint += 1e6 }},
		{"LLCRefBW", func(f *Flow) { f.LLCRefBW += GB }},
		{"LLCWayMask", func(f *Flow) { f.LLCWayMask = 0x3 }},
		{"Socket", func(f *Flow) { f.Socket = 1 - f.Socket }},
		{"Subdomain", func(f *Flow) { f.Subdomain = 1 - f.Subdomain }},
		{"HighPriority", func(f *Flow) { f.HighPriority = !f.HighPriority }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SNCEnabled = true
			cfg.FineGrainedQoS = true // so HighPriority matters
			s := MustSystem(cfg)
			flows := incrementalFlows()
			if _, err := s.Resolve(flows); err != nil {
				t.Fatal(err)
			}
			// Warm the short-circuit, then mutate one field of one flow.
			if _, err := s.Resolve(flows); err != nil {
				t.Fatal(err)
			}
			tc.mut(&flows[2])
			got, err := s.Resolve(flows)
			if err != nil {
				t.Fatal(err)
			}
			want, err := MustSystem(cfg).Resolve(flows)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("mutated %s: stale short-circuit\n got: %+v\nwant: %+v", tc.name, got, want)
			}
		})
	}
}

// TestResolveEpochInvalidates pins that configuration mutations invalidate
// the fingerprint even when the flow set is unchanged.
func TestResolveEpochInvalidates(t *testing.T) {
	cfg := DefaultConfig()
	s := MustSystem(cfg)
	flows := incrementalFlows()
	r1, err := s.Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	before := r1.Clone()
	s.SetSNC(true)
	got, err := s.Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	sncCfg := cfg
	sncCfg.SNCEnabled = true
	want, err := MustSystem(sncCfg).Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("SetSNC did not invalidate the cached fixed-point\n got: %+v\nwant: %+v", got, want)
	}
	if reflect.DeepEqual(normalize(got), normalize(before)) {
		t.Fatal("SNC flip produced an identical resolution; invalidation untestable with this flow set")
	}

	// Same for the fine-grained QoS toggle.
	s2 := MustSystem(cfg)
	if _, err := s2.Resolve(flows); err != nil {
		t.Fatal(err)
	}
	s2.SetFineGrainedQoS(true)
	got2, err := s2.Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	fgCfg := cfg
	fgCfg.FineGrainedQoS = true
	want2, err := MustSystem(fgCfg).Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got2), normalize(want2)) {
		t.Fatalf("SetFineGrainedQoS did not invalidate the cached fixed-point\n got: %+v\nwant: %+v", got2, want2)
	}
}

// TestResolveShortCircuitOwnership extends the PR 5 double-buffer pin to
// incremental mode: a clean step does not flip the buffers, so a retained
// resolution survives a clean step plus one dirty step, and is overwritten
// no earlier than the second distinct resolution after it.
func TestResolveShortCircuitOwnership(t *testing.T) {
	cfg := DefaultConfig()
	s := MustSystem(cfg)
	f1 := []Flow{{Task: "x", Socket: 0, DemandBW: 10 * GB}}
	f2 := []Flow{{Task: "y", Socket: 1, DemandBW: 50 * GB}}

	r1, err := s.Resolve(f1)
	if err != nil {
		t.Fatal(err)
	}
	snap := r1.Clone()
	// Arbitrarily many clean steps leave r1 untouched.
	for i := 0; i < 5; i++ {
		if _, err := s.Resolve(f1); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(normalize(r1), normalize(snap)) {
		t.Fatal("clean steps mutated a held resolution")
	}
	// One dirty step writes the *other* buffer; r1 still intact.
	if _, err := s.Resolve(f2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(r1), normalize(snap)) {
		t.Fatal("first dirty step after clean steps mutated a held resolution")
	}
}

// TestResolveIncrementalEvents pins that a recorder attached between clean
// steps still observes its initial transition edges, and that clean steps
// emit nothing on a true steady state.
func TestResolveIncrementalEvents(t *testing.T) {
	cfg := DefaultConfig()
	s := MustSystem(cfg)
	// Enough demand to assert distress on socket 0.
	flows := []Flow{{Task: "hog", Socket: 0, DemandBW: 4 * cfg.SocketBW()}}
	if _, err := s.Resolve(flows); err != nil {
		t.Fatal(err)
	}
	rec, err := events.New(64)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	s.SetEvents(rec, func() float64 { return now })
	// Clean step with a freshly attached recorder: initial edges emitted.
	if _, err := s.Resolve(flows); err != nil {
		t.Fatal(err)
	}
	first := rec.Len()
	if first == 0 {
		t.Fatal("recorder attached mid-run saw no initial transitions on a clean step")
	}
	// Further clean steps: no new edges.
	now = 1.0
	if _, err := s.Resolve(flows); err != nil {
		t.Fatal(err)
	}
	if n := rec.Len(); n != first {
		t.Fatalf("steady clean step emitted %d new events", n-first)
	}
}

// TestReplay pins the clean-tick replay handshake. After a caller receives
// a resolution from Resolve, Replay with its Seq returns exactly what
// Resolve of the same flows would: the same pointer and the same Seq. It
// declines whenever the cached fixed point may no longer be that
// resolution.
func TestReplay(t *testing.T) {
	flows := incrementalFlows()
	resolve := func(t *testing.T, s *System, fl []Flow) *Resolution {
		t.Helper()
		r, err := s.Resolve(fl)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("matches Resolve", func(t *testing.T) {
		s := MustSystem(DefaultConfig())
		seq := resolve(t, s, flows).Seq()
		for i := 0; i < 3; i++ {
			got, ok := s.Replay(seq)
			if !ok {
				t.Fatalf("replay %d declined a clean cache", i)
			}
			want := resolve(t, s, flows)
			if got != want || got.Seq() != want.Seq() {
				t.Fatalf("replay %d = %p seq %d, Resolve = %p seq %d", i, got, got.Seq(), want, want.Seq())
			}
		}
	})

	declines := []struct {
		name string
		// prepare brings s into the state under test and returns the Seq
		// its caller last received.
		prepare func(t *testing.T, s *System) uint64
	}{
		{"before first Resolve", func(t *testing.T, s *System) uint64 { return 0 }},
		{"incremental off", func(t *testing.T, s *System) uint64 {
			seq := resolve(t, s, flows).Seq()
			s.SetIncremental(false)
			return seq
		}},
		{"epoch bump", func(t *testing.T, s *System) uint64 {
			seq := resolve(t, s, flows).Seq()
			s.SetSNC(true)
			return seq
		}},
		{"failed Resolve", func(t *testing.T, s *System) uint64 {
			seq := resolve(t, s, flows).Seq()
			if _, err := s.Resolve([]Flow{{Task: "bad", Socket: 99}}); err == nil {
				t.Fatal("invalid flow accepted")
			}
			return seq
		}},
		{"seq mismatch", func(t *testing.T, s *System) uint64 {
			seq := resolve(t, s, flows).Seq()
			resolve(t, s, []Flow{{Task: "x", Socket: 1, DemandBW: 10 * GB}})
			return seq
		}},
	}
	for _, tc := range declines {
		t.Run(tc.name, func(t *testing.T) {
			s := MustSystem(DefaultConfig())
			seq := tc.prepare(t, s)
			if r, ok := s.Replay(seq); ok || r != nil {
				t.Fatalf("Replay(%d) = %p, %v; want nil, false", seq, r, ok)
			}
		})
	}
}

// TestReplayEvents pins that Replay emits transitions exactly as
// Resolve's short-circuit does: a recorder attached mid-run observes its
// initial edges on the first replay, and steady replays emit nothing.
func TestReplayEvents(t *testing.T) {
	cfg := DefaultConfig()
	flows := []Flow{{Task: "hog", Socket: 0, DemandBW: 4 * cfg.SocketBW()}}
	run := func(step func(s *System, seq uint64)) []events.Event {
		s := MustSystem(cfg)
		r, err := s.Resolve(flows)
		if err != nil {
			t.Fatal(err)
		}
		rec := events.MustNew(64)
		now := 0.0
		s.SetEvents(rec, func() float64 { return now })
		for ; now < 3; now++ {
			step(s, r.Seq())
		}
		return rec.Since(0)
	}
	replayed := run(func(s *System, seq uint64) {
		if _, ok := s.Replay(seq); !ok {
			t.Fatal("replay declined a clean cache")
		}
	})
	resolved := run(func(s *System, _ uint64) {
		if _, err := s.Resolve(flows); err != nil {
			t.Fatal(err)
		}
	})
	if len(replayed) == 0 {
		t.Fatal("recorder attached mid-run saw no initial transitions on replay")
	}
	if !reflect.DeepEqual(replayed, resolved) {
		t.Fatalf("replay events differ from the short-circuit's:\nreplay:  %+v\nresolve: %+v", replayed, resolved)
	}
}
