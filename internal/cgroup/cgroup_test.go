package cgroup

import (
	"testing"

	"kelp/internal/cpu"
)

func newManager(t *testing.T) (*Manager, *cpu.Processor) {
	t.Helper()
	proc := cpu.MustProcessor(cpu.DefaultTopology())
	return NewManager(proc), proc
}

func TestCreateAndLookup(t *testing.T) {
	m, _ := newManager(t)
	g, err := m.Create("ml", High)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "ml" || g.Priority() != High {
		t.Errorf("group = %q/%v", g.Name(), g.Priority())
	}
	if _, err := m.Create("ml", Low); err == nil {
		t.Error("duplicate group accepted")
	}
	if _, err := m.Create("", Low); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := m.Group("nope"); err == nil {
		t.Error("missing group lookup succeeded")
	}
	got, err := m.Group("ml")
	if err != nil || got != g {
		t.Errorf("Group lookup = %v, %v", got, err)
	}
}

func TestRemove(t *testing.T) {
	m, _ := newManager(t)
	if _, err := m.Create("x", Low); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("x"); err == nil {
		t.Error("double remove succeeded")
	}
}

func TestGroupsSorted(t *testing.T) {
	m, _ := newManager(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := m.Create(n, Low); err != nil {
			t.Fatal(err)
		}
	}
	gs := m.Groups()
	want := []string{"alpha", "mid", "zeta"}
	for i, g := range gs {
		if g.Name() != want[i] {
			t.Fatalf("Groups order = %v", gs)
		}
	}
}

func TestSetCPUsValidates(t *testing.T) {
	m, proc := newManager(t)
	if _, err := m.Create("g", Low); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCPUs("g", cpu.NewSet(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Group("g")
	if g.CPUs().Len() != 3 {
		t.Errorf("CPUs = %v", g.CPUs())
	}
	if err := m.SetCPUs("g", cpu.NewSet(proc.NumCores()+5)); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := m.SetCPUs("missing", cpu.NewSet(0)); err == nil {
		t.Error("missing group accepted")
	}
}

func TestSetCPUsCopiesInput(t *testing.T) {
	m, _ := newManager(t)
	m.Create("g", Low)
	in := cpu.NewSet(0, 1)
	m.SetCPUs("g", in)
	in[0] = 5
	g, _ := m.Group("g")
	if g.CPUs()[0] == 5 {
		t.Error("SetCPUs aliases caller slice")
	}
}

// Re-asserting an unchanged mask neither allocates nor bumps the
// generation, and a mask a caller holds from CPUs keeps its cores when the
// group's mask changes.
func TestSetCPUsReassertKeepsMask(t *testing.T) {
	m, _ := newManager(t)
	m.Create("g", Low)
	pool := cpu.NewSet(0, 1, 2, 3)
	m.SetCPUs("g", pool.Prefix(2))
	g, _ := m.Group("g")
	held, gen := g.CPUs(), m.Gen()
	if avg := testing.AllocsPerRun(100, func() { m.SetCPUs("g", pool.Prefix(2)) }); avg != 0 {
		t.Errorf("re-asserting an unchanged mask allocates %v times", avg)
	}
	if m.Gen() != gen {
		t.Error("re-asserting an unchanged mask bumped the generation")
	}
	m.SetCPUs("g", cpu.NewSet(2, 3))
	if held[0] != 0 || held[1] != 1 || pool[0] != 0 || pool[1] != 1 {
		t.Errorf("changing the mask rewrote a held mask %v or the pool %v", held, pool)
	}
}

func TestSetMemPolicyValidates(t *testing.T) {
	m, _ := newManager(t)
	m.Create("g", Low)
	if err := m.SetMemPolicy("g", MemPolicy{Socket: 1, Subdomain: 1}); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Group("g")
	if g.MemPolicy().Socket != 1 || g.MemPolicy().Subdomain != 1 {
		t.Errorf("MemPolicy = %+v", g.MemPolicy())
	}
	if err := m.SetMemPolicy("g", MemPolicy{Socket: 9}); err == nil {
		t.Error("bad socket accepted")
	}
	if err := m.SetMemPolicy("g", MemPolicy{Subdomain: 9}); err == nil {
		t.Error("bad subdomain accepted")
	}
	if err := m.SetMemPolicy("missing", MemPolicy{}); err == nil {
		t.Error("missing group accepted")
	}
}

func TestSetLLCWays(t *testing.T) {
	m, _ := newManager(t)
	m.Create("g", High)
	if err := m.SetLLCWays("g", 0b11); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Group("g")
	if g.LLCWays() != 0b11 {
		t.Errorf("LLCWays = %#x", g.LLCWays())
	}
	if err := m.SetLLCWays("missing", 1); err == nil {
		t.Error("missing group accepted")
	}
}

func TestPrefetchControls(t *testing.T) {
	m, proc := newManager(t)
	m.Create("g", Low)
	cpus := cpu.NewSet(0, 1, 2, 3)
	m.SetCPUs("g", cpus)

	if err := m.SetPrefetch("g", false); err != nil {
		t.Fatal(err)
	}
	for _, id := range cpus {
		if proc.PrefetchOn(id) {
			t.Errorf("core %d prefetch still on", id)
		}
	}
	n, err := m.PrefetchersOn("g")
	if err != nil || n != 0 {
		t.Errorf("PrefetchersOn = %d, %v", n, err)
	}

	set, err := m.SetPrefetchCount("g", 2)
	if err != nil || set != 2 {
		t.Fatalf("SetPrefetchCount = %d, %v", set, err)
	}
	n, _ = m.PrefetchersOn("g")
	if n != 2 {
		t.Errorf("PrefetchersOn = %d, want 2", n)
	}
	if !proc.PrefetchOn(0) || !proc.PrefetchOn(1) || proc.PrefetchOn(2) {
		t.Error("wrong cores toggled")
	}

	// Clamping.
	if set, _ := m.SetPrefetchCount("g", 99); set != 4 {
		t.Errorf("SetPrefetchCount(99) = %d, want 4", set)
	}
	if set, _ := m.SetPrefetchCount("g", -1); set != 0 {
		t.Errorf("SetPrefetchCount(-1) = %d, want 0", set)
	}

	if err := m.SetPrefetch("missing", true); err == nil {
		t.Error("missing group accepted")
	}
	if _, err := m.SetPrefetchCount("missing", 1); err == nil {
		t.Error("missing group accepted")
	}
	if _, err := m.PrefetchersOn("missing"); err == nil {
		t.Error("missing group accepted")
	}
}

func TestSetMBA(t *testing.T) {
	m, _ := newManager(t)
	m.Create("g", Low)
	g, _ := m.Group("g")
	if g.MBAPercent() != 100 {
		t.Errorf("default MBA = %d, want 100", g.MBAPercent())
	}
	if err := m.SetMBA("g", 50); err != nil {
		t.Fatal(err)
	}
	if g.MBAPercent() != 50 {
		t.Errorf("MBA = %d", g.MBAPercent())
	}
	// Real MBA grants 10% steps in [10, 100].
	for _, bad := range []int{0, 5, 55, 105, -10} {
		if err := m.SetMBA("g", bad); err == nil {
			t.Errorf("SetMBA(%d) accepted", bad)
		}
	}
	if err := m.SetMBA("ghost", 50); err == nil {
		t.Error("missing group accepted")
	}
}

func TestSetPriorityRetiers(t *testing.T) {
	m, _ := newManager(t)
	m.Create("g", Low)
	if err := m.SetPriority("g", High); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Group("g")
	if g.Priority() != High {
		t.Error("priority not updated")
	}
	if err := m.SetPriority("ghost", Low); err == nil {
		t.Error("missing group accepted")
	}
}

func TestPriorityString(t *testing.T) {
	if High.String() != "high" || Low.String() != "low" {
		t.Error("priority strings wrong")
	}
}
