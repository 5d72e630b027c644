package memsys

import (
	"reflect"
	"testing"

	"kelp/internal/events"
)

func replayFlows() []Flow {
	return []Flow{
		{Task: "ml", Socket: 0, Subdomain: 0, DemandBW: 3 * GB, LLCFootprint: 8e6, LLCRefBW: 4 * GB, LLCWayMask: 0xf, HighPriority: true},
		{Task: "lo", Socket: 0, Subdomain: 1, DemandBW: 30 * GB, LLCFootprint: 64e6},
		{Task: "rem", Socket: 1, Subdomain: 0, DemandBW: 15 * GB, RemoteFrac: 0.5},
	}
}

// TestResolveMutationRecomputes is the anti-staleness pin: flipping any
// single flow field between steps yields a resolution that matches a fresh
// system's, with nothing stale carried over from the previous steps.
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
			flows := replayFlows()
			if _, err := s.Resolve(flows); err != nil {
				t.Fatal(err)
			}
			// Resolve twice, then mutate one field of one flow.
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
				t.Fatalf("mutated %s: stale resolution\n got: %+v\nwant: %+v", tc.name, got, want)
			}
		})
	}
}

// TestResolveEpochInvalidates pins that configuration mutations invalidate
// the cached fixed point even when the flow set is unchanged: Replay
// declines after each one, and the next Resolve matches a fresh system
// built with the new configuration.
func TestResolveEpochInvalidates(t *testing.T) {
	cfg := DefaultConfig()
	flows := replayFlows()
	for _, tc := range []struct {
		name   string
		mutate func(s *System)
		want   func(c *Config)
	}{
		{"SetSNC", func(s *System) { s.SetSNC(true) }, func(c *Config) { c.SNCEnabled = true }},
		{"SetFineGrainedQoS", func(s *System) { s.SetFineGrainedQoS(true) }, func(c *Config) { c.FineGrainedQoS = true }},
	} {
		s := MustSystem(cfg)
		r1, err := s.Resolve(flows)
		if err != nil {
			t.Fatal(err)
		}
		before := r1.Clone()
		tc.mutate(s)
		if r, ok := s.Replay(r1.Seq()); ok || r != nil {
			t.Fatalf("%s: Replay(%d) = %p, %v after a config change; want nil, false", tc.name, r1.Seq(), r, ok)
		}
		got, err := s.Resolve(flows)
		if err != nil {
			t.Fatal(err)
		}
		mcfg := cfg
		tc.want(&mcfg)
		want, err := MustSystem(mcfg).Resolve(flows)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("%s: resolution after the change diverged from a fresh system\n got: %+v\nwant: %+v", tc.name, got, want)
		}
		if tc.name == "SetSNC" && reflect.DeepEqual(normalize(got), normalize(before)) {
			t.Fatal("SNC flip produced an identical resolution; invalidation untestable with this flow set")
		}
	}
}

// TestReplay pins the replay handshake. After a caller receives a
// resolution from Resolve, Replay with its Seq returns that resolution
// again, the same pointer with the same Seq, whose contents are what a
// Resolve of the same flows computes. It declines whenever the cached fixed
// point may no longer be that resolution.
func TestReplay(t *testing.T) {
	flows := replayFlows()
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
		r := resolve(t, s, flows)
		seq := r.Seq()
		want := normalize(resolve(t, MustSystem(DefaultConfig()), flows))
		for i := 0; i < 3; i++ {
			got, ok := s.Replay(seq)
			if !ok {
				t.Fatalf("replay %d declined a clean cache", i)
			}
			if got != r || got.Seq() != seq {
				t.Fatalf("replay %d = %p seq %d, want %p seq %d", i, got, got.Seq(), r, seq)
			}
			if !reflect.DeepEqual(normalize(got), want) {
				t.Fatalf("replay %d diverged from a fresh Resolve\n got: %+v\nwant: %+v", i, got, want)
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

// TestReplayEvents pins that Replay emits transitions exactly as Resolve
// of the same flows does: a recorder attached mid-run observes its initial
// edges on the first replay, and steady replays emit nothing.
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
		t.Fatalf("replay events differ from Resolve's:\nreplay:  %+v\nresolve: %+v", replayed, resolved)
	}
}
