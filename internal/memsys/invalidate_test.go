package memsys

import (
	"reflect"
	"testing"
)

// mixedFlows returns three flows across both sockets: a high-priority
// flow with LLC reuse, a streaming hog and a half-remote flow.
func mixedFlows() []Flow {
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
			flows := mixedFlows()
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
// the remembered fixed point even when the flow set is unchanged: the next
// Resolve recomputes under a new Seq and matches a fresh system built with
// the new configuration.
func TestResolveEpochInvalidates(t *testing.T) {
	cfg := DefaultConfig()
	flows := mixedFlows()
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
		got, err := s.Resolve(flows)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq() == r1.Seq() {
			t.Fatalf("%s: Resolve after a config change kept Seq %d; want a recompute", tc.name, r1.Seq())
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
