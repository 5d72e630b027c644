package memsys

import (
	"reflect"
	"testing"
)

// reshapeSequence is a flow-set series that grows, shrinks, and changes
// socket/subdomain layout between calls — the shapes the scratch arena must
// transparently re-size across.
func reshapeSequence() [][]Flow {
	return [][]Flow{
		// Small start.
		{
			{Task: "a", Socket: 0, DemandBW: 5 * GB},
		},
		// Grow: more flows, LLC pressure, both sockets, remote traffic.
		{
			{Task: "a", Socket: 0, DemandBW: 5 * GB, LLCFootprint: 16e6, LLCRefBW: 2 * GB},
			{Task: "b", Socket: 0, Subdomain: 1, DemandBW: 20 * GB, LLCFootprint: 64e6},
			{Task: "c", Socket: 1, DemandBW: 10 * GB, RemoteFrac: 0.4},
			{Task: "d", Socket: 1, Subdomain: 1, DemandBW: 8 * GB, LLCFootprint: 8e6, LLCRefBW: GB, LLCWayMask: 0xf},
		},
		// Shrink back to two flows with a different layout.
		{
			{Task: "c", Socket: 1, DemandBW: 30 * GB, RemoteFrac: 0.7},
			{Task: "e", Socket: 0, Subdomain: 1, DemandBW: 12 * GB},
		},
		// Empty step (idle node).
		nil,
		// Regrow with a different socket split.
		{
			{Task: "f", Socket: 1, Subdomain: 0, DemandBW: 25 * GB, LLCFootprint: 32e6, LLCRefBW: 3 * GB},
			{Task: "g", Socket: 1, Subdomain: 1, DemandBW: 25 * GB},
			{Task: "h", Socket: 0, DemandBW: 5 * GB, RemoteFrac: 1},
		},
	}
}

// TestResolveArenaReshape pins that reusing one System's scratch arena
// across growing, shrinking and re-laid-out flow sets produces results
// byte-identical to resolving each flow set on a fresh System.
func TestResolveArenaReshape(t *testing.T) {
	for _, snc := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.SNCEnabled = snc
		reused := MustSystem(cfg)
		for step, flows := range reshapeSequence() {
			got, err := reused.Resolve(flows)
			if err != nil {
				t.Fatalf("snc=%v step %d: %v", snc, step, err)
			}
			want, err := MustSystem(cfg).Resolve(flows)
			if err != nil {
				t.Fatalf("snc=%v step %d (fresh): %v", snc, step, err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Errorf("snc=%v step %d: reused arena diverged from fresh system\n got: %+v\nwant: %+v",
					snc, step, got, want)
			}
		}
	}
}

// normalize maps a resolution to a shape-independent value: length-zero and
// nil slices compare equal (a fresh system returns nil Links, a reused
// arena an empty reused slice — same contents either way), and the
// computation stamp is cleared (it counts the owning system's recomputes,
// not anything about the result).
func normalize(r *Resolution) Resolution {
	out := *r
	if len(out.Links) == 0 {
		out.Links = nil
	}
	if len(out.Flows) == 0 {
		out.Flows = nil
	}
	out.seq = 0
	return out
}

// TestResolveDoubleBuffer pins the documented ownership rule: the
// resolution returned by one Resolve stays intact until the
// second-following Resolve call.
func TestResolveDoubleBuffer(t *testing.T) {
	cfg := DefaultConfig()
	s := MustSystem(cfg)
	f1 := []Flow{{Task: "x", Socket: 0, DemandBW: 10 * GB}}
	f2 := []Flow{{Task: "y", Socket: 1, DemandBW: 50 * GB}}

	r1, err := s.Resolve(f1)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := r1.Clone()
	if _, err := s.Resolve(f2); err != nil {
		t.Fatal(err)
	}
	// One further Resolve: r1 must be untouched.
	if !reflect.DeepEqual(normalize(r1), normalize(snapshot)) {
		t.Fatalf("resolution mutated after one further Resolve:\n got: %+v\nwant: %+v", r1, snapshot)
	}
	// Last() must still point at the newest resolution.
	if s.Last().Flows[0].DRAMTraffic == r1.Flows[0].DRAMTraffic {
		t.Fatal("Last() did not advance")
	}
	// The Clone survives arbitrarily many further resolves.
	for i := 0; i < 4; i++ {
		if _, err := s.Resolve(f2); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(normalize(snapshot), normalize(snapshot.Clone())) {
		t.Fatal("clone self-comparison failed")
	}
}

// TestResolveSteadyStateAllocs pins the tentpole: once the arena has grown
// to the flow-set shape, Resolve performs zero heap allocations, both when
// it recomputes (every call a memo miss, missCycle) and when it returns a
// remembered fixed point.
func TestResolveSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"snc", func(c *Config) { c.SNCEnabled = true }},
		{"finegrained", func(c *Config) { c.FineGrainedQoS = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			s := MustSystem(cfg)
			flows := []Flow{
				{Task: "ml", Socket: 0, Subdomain: 0, DemandBW: 3 * GB, LLCFootprint: 8e6, LLCRefBW: 4 * GB, LLCWayMask: 0xf, HighPriority: true},
				{Task: "lo", Socket: 0, Subdomain: 1, DemandBW: 30 * GB, LLCFootprint: 64e6},
				{Task: "rem", Socket: 1, Subdomain: 0, DemandBW: 15 * GB, RemoteFrac: 0.5},
			}
			base, i := flows[0].DemandBW, 0
			resolve := func() {
				missCycle(flows, base, i)
				i++
				if _, err := s.Resolve(flows); err != nil {
					t.Fatal(err)
				}
			}
			for range memoSlots + 1 {
				resolve()
			}
			if avg := testing.AllocsPerRun(200, resolve); avg != 0 {
				t.Fatalf("steady-state Resolve recompute allocates %v allocs/op, want 0", avg)
			}
			avg := testing.AllocsPerRun(200, func() {
				if _, err := s.Resolve(flows); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("remembered Resolve allocates %v allocs/op, want 0", avg)
			}
		})
	}

	// Dirty steps: flows that change on every call must not allocate
	// either, once every slot has grown its buffers.
	t.Run("incremental-dirty", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.SNCEnabled = true
		s := MustSystem(cfg)
		flows := []Flow{
			{Task: "ml", Socket: 0, Subdomain: 0, DemandBW: 3 * GB, LLCFootprint: 8e6, LLCRefBW: 4 * GB},
			{Task: "lo", Socket: 0, Subdomain: 1, DemandBW: 30 * GB, LLCFootprint: 64e6},
		}
		for range memoSlots {
			flows[1].DemandBW += GB
			if _, err := s.Resolve(flows); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(200, func() {
			flows[1].DemandBW += GB
			if _, err := s.Resolve(flows); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("dirty-step Resolve allocates %v allocs/op, want 0", avg)
		}
	})
}
