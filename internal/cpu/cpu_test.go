package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTopologyValidate(t *testing.T) {
	if err := DefaultTopology().Validate(); err != nil {
		t.Fatalf("default topology invalid: %v", err)
	}
	bad := []Topology{
		{Sockets: 0, CoresPerSocket: 4, SubdomainsPerSocket: 2, SMTWays: 1},
		{Sockets: 1, CoresPerSocket: 0, SubdomainsPerSocket: 1, SMTWays: 1},
		{Sockets: 1, CoresPerSocket: 5, SubdomainsPerSocket: 2, SMTWays: 1},
		{Sockets: 1, CoresPerSocket: 4, SubdomainsPerSocket: 0, SMTWays: 1},
		{Sockets: 1, CoresPerSocket: 4, SubdomainsPerSocket: 2, SMTWays: 0},
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("case %d: invalid topology accepted: %+v", i, topo)
		}
	}
}

func TestProcessorLayout(t *testing.T) {
	topo := DefaultTopology()
	p := MustProcessor(topo)
	if p.NumCores() != topo.TotalCores() {
		t.Fatalf("NumCores = %d, want %d", p.NumCores(), topo.TotalCores())
	}
	// Dense, socket-major, subdomain-minor IDs.
	perSub := topo.CoresPerSubdomain()
	for id := 0; id < p.NumCores(); id++ {
		c, err := p.Core(id)
		if err != nil {
			t.Fatal(err)
		}
		wantSocket := id / topo.CoresPerSocket
		wantSub := (id % topo.CoresPerSocket) / perSub
		if c.Socket != wantSocket || c.Subdomain != wantSub {
			t.Errorf("core %d at (socket %d, sub %d), want (%d, %d)",
				id, c.Socket, c.Subdomain, wantSocket, wantSub)
		}
		if !c.PrefetchOn {
			t.Errorf("core %d prefetch off by default", id)
		}
	}
	if _, err := p.Core(-1); err == nil {
		t.Error("Core(-1) accepted")
	}
	if _, err := p.Core(p.NumCores()); err == nil {
		t.Error("Core(out-of-range) accepted")
	}
}

func TestSubdomainCores(t *testing.T) {
	topo := DefaultTopology()
	p := MustProcessor(topo)
	s := p.SubdomainCores(1, 1)
	if s.Len() != topo.CoresPerSubdomain() {
		t.Fatalf("SubdomainCores len = %d, want %d", s.Len(), topo.CoresPerSubdomain())
	}
	for _, id := range s {
		c, _ := p.Core(id)
		if c.Socket != 1 || c.Subdomain != 1 {
			t.Errorf("core %d in wrong place: %+v", id, c)
		}
	}
	if got := p.SocketCores(0).Len(); got != topo.CoresPerSocket {
		t.Errorf("SocketCores(0) len = %d", got)
	}
}

func TestPrefetchToggle(t *testing.T) {
	p := MustProcessor(DefaultTopology())
	if err := p.SetPrefetch(3, false); err != nil {
		t.Fatal(err)
	}
	if p.PrefetchOn(3) {
		t.Error("prefetch still on after disable")
	}
	if err := p.SetPrefetch(3, true); err != nil {
		t.Fatal(err)
	}
	if !p.PrefetchOn(3) {
		t.Error("prefetch still off after enable")
	}
	if err := p.SetPrefetch(-1, false); err == nil {
		t.Error("SetPrefetch(-1) accepted")
	}
	if p.PrefetchOn(-1) {
		t.Error("PrefetchOn(-1) should be false")
	}
}

func TestSetNormalization(t *testing.T) {
	s := NewSet(3, 1, 2, 3, 1)
	want := []int{1, 2, 3}
	if s.Len() != 3 {
		t.Fatalf("Set = %v", s)
	}
	for i, id := range want {
		if s[i] != id {
			t.Fatalf("Set = %v, want %v", s, want)
		}
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet(1, 2, 3, 4)
	b := NewSet(3, 4, 5)
	if got := a.Union(b); got.Len() != 5 || !got.Contains(5) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Minus(b); got.Len() != 2 || got.Contains(3) {
		t.Errorf("Minus = %v", got)
	}
	if got := a.Intersect(b); got.Len() != 2 || !got.Contains(3) || !got.Contains(4) {
		t.Errorf("Intersect = %v", got)
	}
	if a.Contains(9) {
		t.Error("Contains(9) true")
	}
}

func TestSetTake(t *testing.T) {
	s := NewSet(5, 6, 7)
	if got := s.Take(2); got.Len() != 2 || got[0] != 5 {
		t.Errorf("Take(2) = %v", got)
	}
	if got := s.Take(10); got.Len() != 3 {
		t.Errorf("Take(10) = %v", got)
	}
	if got := s.Take(-1); got.Len() != 0 {
		t.Errorf("Take(-1) = %v", got)
	}
	// Take must copy, not alias.
	taken := s.Take(3)
	taken[0] = 99
	if s[0] == 99 {
		t.Error("Take aliases the original set")
	}
}

// Prefix is Take sharing storage: the same cores, clamped the same way, on
// s's array, with no room to append over s's later cores.
func TestSetPrefix(t *testing.T) {
	s := NewSet(5, 6, 7)
	for _, n := range []int{-1, 0, 2, 3, 10} {
		p, want := s.Prefix(n), s.Take(n)
		if len(p) != len(want) || cap(p) != len(p) {
			t.Fatalf("Prefix(%d) = %v (cap %d), want %v with no spare room", n, p, cap(p), want)
		}
		for i := range p {
			if p[i] != want[i] || &p[i] != &s[i] {
				t.Fatalf("Prefix(%d) = %v, want %v sharing s's storage", n, p, want)
			}
		}
	}
	if p := append(s.Prefix(2), 99); s[2] != 7 || p[2] != 99 {
		t.Errorf("appending to a prefix wrote over the set: %v", s)
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	gen := func(rng *rand.Rand) Set {
		n := rng.Intn(10)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(16)
		}
		return NewSet(ids...)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		u := a.Union(b)
		for _, id := range a {
			if !u.Contains(id) {
				return false
			}
		}
		for _, id := range b {
			if !u.Contains(id) {
				return false
			}
		}
		// (a - b) and (a ∩ b) partition a.
		if a.Minus(b).Len()+a.Intersect(b).Len() != a.Len() {
			return false
		}
		// Minus removes all of b.
		for _, id := range a.Minus(b) {
			if b.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCoreSetFilterNil(t *testing.T) {
	p := MustProcessor(DefaultTopology())
	if got := p.CoreSet(nil).Len(); got != p.NumCores() {
		t.Errorf("CoreSet(nil) = %d cores, want all %d", got, p.NumCores())
	}
}
