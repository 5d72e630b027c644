// Package cpu models the host processor's cores: their socket and NUMA
// subdomain topology, per-core L2 hardware prefetcher toggles (the MSR knob
// Kelp flips), and core sets (the CPU-mask actuator CoreThrottle and Kelp's
// backfilling use).
//
// Prefetchers trade single-thread performance for memory traffic: a core
// with prefetching enabled multiplies its offered DRAM bandwidth by
// (1 + PrefetchTraffic) and its memory-bound execution rate by
// PrefetchSpeedup. Disabling prefetchers is therefore a pure
// pressure-management knob, exactly as in the paper (§IV-B).
package cpu

import (
	"fmt"
	"sort"
)

// Topology describes the core layout of one node.
type Topology struct {
	Sockets        int
	CoresPerSocket int
	// SubdomainsPerSocket is how many NUMA subdomains each socket splits
	// into when SNC is enabled; cores are divided evenly among them.
	SubdomainsPerSocket int
	// SMTWays is threads per physical core (2 on the paper's Xeons). The
	// simulator schedules at logical-core granularity; SMTWays informs
	// capacity accounting.
	SMTWays int
}

// DefaultTopology mirrors the paper's dual-socket hosts: 2 sockets x 28
// logical cores, two subdomains per socket, SMT2.
func DefaultTopology() Topology {
	return Topology{Sockets: 2, CoresPerSocket: 28, SubdomainsPerSocket: 2, SMTWays: 2}
}

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	switch {
	case t.Sockets < 1:
		return fmt.Errorf("cpu: Sockets = %d", t.Sockets)
	case t.CoresPerSocket < 1:
		return fmt.Errorf("cpu: CoresPerSocket = %d", t.CoresPerSocket)
	case t.SubdomainsPerSocket < 1 || t.CoresPerSocket%t.SubdomainsPerSocket != 0:
		return fmt.Errorf("cpu: %d cores not divisible into %d subdomains",
			t.CoresPerSocket, t.SubdomainsPerSocket)
	case t.SMTWays < 1:
		return fmt.Errorf("cpu: SMTWays = %d", t.SMTWays)
	}
	return nil
}

// CoresPerSubdomain returns logical cores per NUMA subdomain.
func (t Topology) CoresPerSubdomain() int { return t.CoresPerSocket / t.SubdomainsPerSocket }

// Core is one logical core.
type Core struct {
	ID        int
	Socket    int
	Subdomain int
	// PrefetchOn reports whether the core's L2 hardware prefetchers are
	// enabled. Default on, as on real machines.
	PrefetchOn bool
}

// Processor is the set of all cores on a node plus the prefetcher state.
type Processor struct {
	topo  Topology
	cores []Core
	// gen counts prefetcher-state mutations; the node's clean-tick fast
	// path compares generations to detect actuations between steps.
	gen uint64
}

// NewProcessor builds a processor for the topology. Core IDs are dense:
// socket-major, subdomain-minor, matching how SNC exposes NUMA nodes.
func NewProcessor(topo Topology) (*Processor, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	p := &Processor{topo: topo}
	id := 0
	perSub := topo.CoresPerSubdomain()
	for s := 0; s < topo.Sockets; s++ {
		for sd := 0; sd < topo.SubdomainsPerSocket; sd++ {
			for c := 0; c < perSub; c++ {
				p.cores = append(p.cores, Core{ID: id, Socket: s, Subdomain: sd, PrefetchOn: true})
				id++
			}
		}
	}
	return p, nil
}

// MustProcessor is NewProcessor that panics on invalid topology.
func MustProcessor(topo Topology) *Processor {
	p, err := NewProcessor(topo)
	if err != nil {
		panic(err)
	}
	return p
}

// Topology returns the processor's topology.
func (p *Processor) Topology() Topology { return p.topo }

// Core returns the core with the given ID.
func (p *Processor) Core(id int) (Core, error) {
	if id < 0 || id >= len(p.cores) {
		return Core{}, fmt.Errorf("cpu: core %d out of range [0, %d)", id, len(p.cores))
	}
	return p.cores[id], nil
}

// SetPrefetch toggles the L2 prefetchers on one core.
func (p *Processor) SetPrefetch(id int, on bool) error {
	if id < 0 || id >= len(p.cores) {
		return fmt.Errorf("cpu: core %d out of range", id)
	}
	if p.cores[id].PrefetchOn != on {
		p.cores[id].PrefetchOn = on
		p.gen++
	}
	return nil
}

// Gen returns the prefetcher-state generation, incremented by every
// effective SetPrefetch (a write that changes a core's flag). Equal
// generations guarantee identical prefetcher state.
func (p *Processor) Gen() uint64 { return p.gen }

// PrefetchState returns a copy of every core's prefetcher flag, indexed by
// core ID — the processor's snapshotable mutable state.
func (p *Processor) PrefetchState() []bool {
	st := make([]bool, len(p.cores))
	for i, c := range p.cores {
		st[i] = c.PrefetchOn
	}
	return st
}

// RestorePrefetchState installs a snapshot taken by PrefetchState.
func (p *Processor) RestorePrefetchState(st []bool) error {
	if len(st) != len(p.cores) {
		return fmt.Errorf("cpu: snapshot has %d cores, processor has %d", len(st), len(p.cores))
	}
	for i := range p.cores {
		if p.cores[i].PrefetchOn != st[i] {
			p.cores[i].PrefetchOn = st[i]
			p.gen++
		}
	}
	return nil
}

// PrefetchOn reports the prefetcher state of one core; out-of-range IDs
// report false.
func (p *Processor) PrefetchOn(id int) bool {
	if id < 0 || id >= len(p.cores) {
		return false
	}
	return p.cores[id].PrefetchOn
}

// CoreSet returns the IDs of all cores matching the filter.
func (p *Processor) CoreSet(filter func(Core) bool) Set {
	var s Set
	for _, c := range p.cores {
		if filter == nil || filter(c) {
			s = append(s, c.ID)
		}
	}
	return s
}

// SocketCores returns all core IDs on a socket.
func (p *Processor) SocketCores(socket int) Set {
	return p.CoreSet(func(c Core) bool { return c.Socket == socket })
}

// SubdomainCores returns all core IDs in (socket, subdomain).
func (p *Processor) SubdomainCores(socket, subdomain int) Set {
	return p.CoreSet(func(c Core) bool { return c.Socket == socket && c.Subdomain == subdomain })
}

// Set is an ordered set of logical core IDs — a CPU mask.
type Set []int

// NewSet returns a normalized (sorted, deduplicated) set.
func NewSet(ids ...int) Set {
	s := append(Set(nil), ids...)
	sort.Ints(s)
	out := s[:0]
	for i, id := range s {
		if i == 0 || id != s[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Len returns the number of cores in the set.
func (s Set) Len() int { return len(s) }

// Contains reports whether id is in the set.
func (s Set) Contains(id int) bool {
	i := sort.SearchInts(s, id)
	return i < len(s) && s[i] == id
}

// Take returns a copy of the first n cores of the set (all of them if
// n >= Len).
func (s Set) Take(n int) Set { return append(Set(nil), s.Prefix(n)...) }

// Prefix is Take without the copy: the result shares s's storage, capped so
// that appending to it copies. A controller re-asserting a cpuset every
// period passes one to cgroup.Manager.SetCPUs, which copies only a changed
// mask.
func (s Set) Prefix(n int) Set {
	n = min(max(n, 0), len(s))
	return s[:n:n]
}

// Minus returns s with other's cores removed.
func (s Set) Minus(other Set) Set {
	var out Set
	for _, id := range s {
		if !other.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}
