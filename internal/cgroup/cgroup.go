// Package cgroup models the node-level resource control surface Kelp
// actuates through: task groups with CPU masks (cpusets), NUMA memory
// policies (numactl bindings), cache-way allocations (Intel CAT class-of-
// service masks), and priorities (the Borg tier of each task).
//
// On a real machine these map to /sys/fs/cgroup, mbind/set_mempolicy, and
// resctrl; here they parameterize how the node package builds memory flows
// and schedules task work.
package cgroup

import (
	"fmt"
	"sort"

	"kelp/internal/cpu"
)

// Priority is a task's scheduling tier.
type Priority int

// Priorities. The paper's model has one high-priority accelerated task and
// multiple low-priority (best-effort) CPU tasks per machine.
const (
	Low Priority = iota
	High
)

// String returns the priority name.
func (p Priority) String() string {
	if p == High {
		return "high"
	}
	return "low"
}

// MemPolicy is a task group's NUMA memory binding.
type MemPolicy struct {
	// Socket holds the group's data.
	Socket int
	// Subdomain holds the group's data when SNC is enabled.
	Subdomain int
}

// Group is one task group (one cgroup directory).
type Group struct {
	name     string
	priority Priority
	cpus     cpu.Set
	mem      MemPolicy
	llcWays  uint64 // CAT mask; 0 = all ways
	mba      int    // MBA throttle percent; 0 means unset (=100)
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Priority returns the group's tier.
func (g *Group) Priority() Priority { return g.priority }

// CPUs returns the group's CPU mask (do not mutate).
func (g *Group) CPUs() cpu.Set { return g.cpus }

// MemPolicy returns the group's NUMA binding.
func (g *Group) MemPolicy() MemPolicy { return g.mem }

// LLCWays returns the group's CAT way mask (0 means all ways).
func (g *Group) LLCWays() uint64 { return g.llcWays }

// MBAPercent returns the group's Memory Bandwidth Allocation throttle level
// in percent (100 = unthrottled).
func (g *Group) MBAPercent() int {
	if g.mba == 0 {
		return 100
	}
	return g.mba
}

// Manager owns all task groups on a node.
type Manager struct {
	proc   *cpu.Processor
	groups map[string]*Group
	// gen counts effective group mutations (create, remove, and every
	// setter that changes a field); the node's offer horizon compares
	// generations to detect actuations between steps.
	gen uint64
}

// NewManager returns a manager bound to the node's processor.
func NewManager(proc *cpu.Processor) *Manager {
	return &Manager{proc: proc, groups: make(map[string]*Group)}
}

// Create makes a new group. The group starts with no CPUs; callers must
// assign a cpuset before tasks in it can run.
func (m *Manager) Create(name string, prio Priority) (*Group, error) {
	if name == "" {
		return nil, fmt.Errorf("cgroup: empty group name")
	}
	if _, ok := m.groups[name]; ok {
		return nil, fmt.Errorf("cgroup: group %q already exists", name)
	}
	g := &Group{name: name, priority: prio}
	m.groups[name] = g
	m.gen++
	return g, nil
}

// Gen returns the group-state generation, incremented by every effective
// mutation. Equal generations guarantee identical group state.
func (m *Manager) Gen() uint64 { return m.gen }

// Group returns the named group.
func (m *Manager) Group(name string) (*Group, error) {
	g, ok := m.groups[name]
	if !ok {
		return nil, fmt.Errorf("cgroup: no group %q", name)
	}
	return g, nil
}

// Remove deletes the named group.
func (m *Manager) Remove(name string) error {
	if _, ok := m.groups[name]; !ok {
		return fmt.Errorf("cgroup: no group %q", name)
	}
	delete(m.groups, name)
	m.gen++
	return nil
}

// Groups returns all groups sorted by name for deterministic iteration.
func (m *Manager) Groups() []*Group {
	names := make([]string, 0, len(m.groups))
	for n := range m.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Group, len(names))
	for i, n := range names {
		out[i] = m.groups[n]
	}
	return out
}

// SetCPUs assigns a CPU mask to a group. Every core must exist.
func (m *Manager) SetCPUs(name string, cpus cpu.Set) error {
	g, err := m.Group(name)
	if err != nil {
		return err
	}
	for _, id := range cpus {
		if _, err := m.proc.Core(id); err != nil {
			return fmt.Errorf("cgroup: group %q: %w", name, err)
		}
	}
	// An unchanged mask keeps its storage, so re-asserting one, as a
	// controller does every period, does not allocate. A changed one is a
	// fresh copy: CPUs' callers may still hold the old.
	if !setsEqual(g.cpus, cpus) {
		m.gen++
		g.cpus = append(cpu.Set(nil), cpus...)
	}
	return nil
}

func setsEqual(a, b cpu.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SetMemPolicy binds a group's memory to (socket, subdomain).
func (m *Manager) SetMemPolicy(name string, pol MemPolicy) error {
	g, err := m.Group(name)
	if err != nil {
		return err
	}
	topo := m.proc.Topology()
	if pol.Socket < 0 || pol.Socket >= topo.Sockets {
		return fmt.Errorf("cgroup: group %q: socket %d out of range", name, pol.Socket)
	}
	if pol.Subdomain < 0 || pol.Subdomain >= topo.SubdomainsPerSocket {
		return fmt.Errorf("cgroup: group %q: subdomain %d out of range", name, pol.Subdomain)
	}
	if g.mem != pol {
		m.gen++
	}
	g.mem = pol
	return nil
}

// SetPriority changes a group's scheduling tier (re-tiering a running
// cgroup, as cluster schedulers do when a task's class changes).
func (m *Manager) SetPriority(name string, prio Priority) error {
	g, err := m.Group(name)
	if err != nil {
		return err
	}
	if g.priority != prio {
		m.gen++
	}
	g.priority = prio
	return nil
}

// SetLLCWays assigns a CAT way mask to a group (0 restores all ways).
func (m *Manager) SetLLCWays(name string, mask uint64) error {
	g, err := m.Group(name)
	if err != nil {
		return err
	}
	if g.llcWays != mask {
		m.gen++
	}
	g.llcWays = mask
	return nil
}

// SetMBA sets the group's Memory Bandwidth Allocation throttle (Intel MBA,
// paper §VI-D) in percent, 10..100 in steps of 10 as on real hardware.
// Note the documented hardware limitation, which the simulation reproduces:
// the rate controller throttles traffic from the core to the interconnect
// and LLC as well, so MBA slows cache-resident work too.
func (m *Manager) SetMBA(name string, percent int) error {
	g, err := m.Group(name)
	if err != nil {
		return err
	}
	if percent < 10 || percent > 100 || percent%10 != 0 {
		return fmt.Errorf("cgroup: group %q: MBA percent %d (want 10..100 step 10)", name, percent)
	}
	if g.mba != percent {
		m.gen++
	}
	g.mba = percent
	return nil
}

// SetPrefetchCount enables prefetchers on the first n cores of the group's
// cpuset and disables them on the rest. It returns the number actually
// enabled. This is the fractional actuation Fig. 7 sweeps ("percentage of
// prefetchers disabled").
func (m *Manager) SetPrefetchCount(name string, n int) (int, error) {
	g, err := m.Group(name)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		n = 0
	}
	if n > len(g.cpus) {
		n = len(g.cpus)
	}
	for i, id := range g.cpus {
		if err := m.proc.SetPrefetch(id, i < n); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// GroupState is a snapshot of one group's control settings, used by the
// node-level warm-start snapshot (docs/PERFORMANCE.md).
type GroupState struct {
	Name     string
	Priority Priority
	CPUs     cpu.Set
	Mem      MemPolicy
	LLCWays  uint64
	MBA      int
}

// State snapshots every group's settings, sorted by name.
func (m *Manager) State() []GroupState {
	gs := m.Groups()
	out := make([]GroupState, len(gs))
	for i, g := range gs {
		out[i] = GroupState{
			Name:     g.name,
			Priority: g.priority,
			CPUs:     append(cpu.Set(nil), g.cpus...),
			Mem:      g.mem,
			LLCWays:  g.llcWays,
			MBA:      g.mba,
		}
	}
	return out
}

// Restore installs a snapshot taken by State. Every snapshotted group must
// already exist (warm-start rebuilds the cell's groups deterministically
// before restoring); extra groups are left untouched.
func (m *Manager) Restore(st []GroupState) error {
	for _, s := range st {
		g, ok := m.groups[s.Name]
		if !ok {
			return fmt.Errorf("cgroup: restore: no group %q", s.Name)
		}
		if g.priority != s.Priority || !setsEqual(g.cpus, s.CPUs) || g.mem != s.Mem ||
			g.llcWays != s.LLCWays || g.mba != s.MBA {
			m.gen++
		}
		g.priority = s.Priority
		g.cpus = append(cpu.Set(nil), s.CPUs...)
		g.mem = s.Mem
		g.llcWays = s.LLCWays
		g.mba = s.MBA
	}
	return nil
}

// PrefetchersOn counts cores in the group with prefetchers enabled.
func (m *Manager) PrefetchersOn(name string) (int, error) {
	g, err := m.Group(name)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range g.cpus {
		if m.proc.PrefetchOn(id) {
			n++
		}
	}
	return n, nil
}
