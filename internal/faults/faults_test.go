package faults

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"kelp/internal/cgroup"
	"kelp/internal/cpu"
	"kelp/internal/perfmon"
)

func sample() perfmon.Sample {
	return perfmon.Sample{
		Elapsed:            1,
		SocketBW:           []float64{100, 50},
		SocketOfferedBW:    []float64{120, 60},
		SocketLatency:      []float64{80e-9, 70e-9},
		SocketSaturation:   []float64{0.02, 0.01},
		SocketBackpressure: []float64{1, 1},
		ControllerBW:       [][]float64{{50, 50}, {25, 25}},
		ControllerLatency:  [][]float64{{80e-9, 80e-9}, {70e-9, 70e-9}},
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"",
		"off",
		"seed=7",
		"seed=7,drop=0.25,actstick=0.1",
		"drop=0.1,stale=0.2,nan=0.3,spike=0.4,spikemag=10,flap=0.5,actfail=0.6,actstick=0.1,actpartial=0.1,stall=0.05",
	} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(String(%q)): %v", in, err)
		}
		if again != s {
			t.Errorf("round trip of %q: %+v != %+v", in, again, s)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"drop",             // not key=value
		"bogus=1",          // unknown key
		"drop=zero",        // not a float
		"seed=-1",          // seed is unsigned
		"drop=1.5",         // probability out of range
		"drop=-0.1",        // negative probability
		"spikemag=0.5",     // magnitude must exceed 1
		"stall=NaN",        // NaN probability
		"drop=0.2,stale=2", // second key bad
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

func TestSpecEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Error("zero spec reports enabled")
	}
	if (Spec{Seed: 99}).Enabled() {
		t.Error("seed alone reports enabled")
	}
	if !(Spec{Drop: 0.01}).Enabled() {
		t.Error("drop > 0 reports disabled")
	}
	if !(Spec{ActStick: 0.01}).Enabled() {
		t.Error("actstick > 0 reports disabled")
	}
}

// A nil injector must be an exact pass-through: untouched samples, no
// stalls, direct writes with no read-back.
func TestNilInjectorPassThrough(t *testing.T) {
	var inj *Injector
	s := sample()
	out, dropped := inj.PerturbSample(0, "kelp", s)
	if dropped {
		t.Error("nil injector dropped a sample")
	}
	if &out.SocketBW[0] != &s.SocketBW[0] {
		t.Error("nil injector copied the sample")
	}
	if inj.Stall(0, "kelp") {
		t.Error("nil injector stalled")
	}
	if inj.Total() != 0 || inj.Counts() != nil {
		t.Error("nil injector counts faults")
	}
	if inj.Spec() != (Spec{}) {
		t.Error("nil injector has a spec")
	}
	inj.SetRecorder(nil) // must not panic

	cg := cgroup.NewManager(cpu.MustProcessor(cpu.DefaultTopology()))
	if _, err := cg.Create("g", cgroup.Low); err != nil {
		t.Fatal(err)
	}
	if err := inj.SetCPUs(0, cg, "g", cpu.Set{0, 1}); err != nil {
		t.Fatal(err)
	}
	g, _ := cg.Group("g")
	if g.CPUs().Len() != 2 {
		t.Errorf("nil injector SetCPUs: got %d cores", g.CPUs().Len())
	}
	if err := inj.SetMBA(0, cg, "g", 40); err != nil {
		t.Fatal(err)
	}
	if g.MBAPercent() != 40 {
		t.Errorf("nil injector SetMBA: got %d", g.MBAPercent())
	}
}

// Identical (seed, spec) pairs must replay identical fault sequences.
func TestDeterminism(t *testing.T) {
	spec := Spec{Seed: 11, Drop: 0.2, Stale: 0.2, NaN: 0.1, Spike: 0.1, Flap: 0.1, Stall: 0.1}
	run := func() ([]bool, []bool, []float64) {
		inj := MustInjector(spec)
		var stalls, drops []bool
		var bw []float64
		for i := 0; i < 200; i++ {
			stalls = append(stalls, inj.Stall(float64(i), "kelp"))
			out, dropped := inj.PerturbSample(float64(i), "kelp", sample())
			drops = append(drops, dropped)
			if !dropped {
				bw = append(bw, out.SocketBW[0])
			}
		}
		return stalls, drops, bw
	}
	s1, d1, b1 := run()
	s2, d2, b2 := run()
	for i := range s1 {
		if s1[i] != s2[i] || d1[i] != d2[i] {
			t.Fatalf("period %d diverged: stall %v/%v drop %v/%v", i, s1[i], s2[i], d1[i], d2[i])
		}
	}
	if len(b1) != len(b2) {
		t.Fatalf("surviving samples: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] && !(math.IsNaN(b1[i]) && math.IsNaN(b2[i])) {
			t.Fatalf("sample %d diverged: %v vs %v", i, b1[i], b2[i])
		}
	}
}

// Enabling one fault class must not shift another class's draw sequence:
// the drop pattern with only drop enabled equals the drop pattern with
// every other class also enabled.
func TestStreamIndependence(t *testing.T) {
	drops := func(spec Spec) []bool {
		inj := MustInjector(spec)
		var out []bool
		for i := 0; i < 300; i++ {
			_, dropped := inj.PerturbSample(float64(i), "kelp", sample())
			out = append(out, dropped)
		}
		return out
	}
	only := drops(Spec{Seed: 3, Drop: 0.3})
	mixed := drops(Spec{Seed: 3, Drop: 0.3, NaN: 0.5, Spike: 0.5, Flap: 0.5, Stall: 0.9})
	for i := range only {
		if only[i] != mixed[i] {
			t.Fatalf("drop sequence shifted at period %d when other classes enabled", i)
		}
	}
}

// Dropped periods return an empty sample; stale periods replay the
// previous clean reading; NaN poisoning leaves NaN in exactly the
// advertised metrics.
func TestSensorFaultClasses(t *testing.T) {
	inj := MustInjector(Spec{Seed: 1, Drop: 1})
	if _, dropped := inj.PerturbSample(0, "kelp", sample()); !dropped {
		t.Error("drop=1 did not drop")
	}

	inj = MustInjector(Spec{Seed: 1, Stale: 1})
	first := sample()
	first.SocketBW[0] = 111
	// No previous reading cached: the first period passes through clean.
	out, dropped := inj.PerturbSample(0, "kelp", first)
	if dropped || out.SocketBW[0] != 111 {
		t.Fatalf("first stale period: dropped=%v bw=%v", dropped, out.SocketBW[0])
	}
	second := sample()
	second.SocketBW[0] = 222
	out, _ = inj.PerturbSample(1, "kelp", second)
	if out.SocketBW[0] != 111 {
		t.Errorf("stale replay: got bw %v, want held 111", out.SocketBW[0])
	}

	inj = MustInjector(Spec{Seed: 1, NaN: 1})
	sawNaN := false
	for i := 0; i < 4; i++ {
		out, _ := inj.PerturbSample(float64(i), "kelp", sample())
		for _, v := range out.SocketBW {
			sawNaN = sawNaN || math.IsNaN(v)
		}
		for _, v := range out.SocketLatency {
			sawNaN = sawNaN || math.IsNaN(v)
		}
	}
	if !sawNaN {
		t.Error("nan=1 never poisoned socket bw or latency over a full metric cycle")
	}

	inj = MustInjector(Spec{Seed: 1, Flap: 1})
	out, _ = inj.PerturbSample(0, "kelp", sample())
	v0 := out.SocketSaturation[0]
	out, _ = inj.PerturbSample(1, "kelp", sample())
	v1 := out.SocketSaturation[0]
	if !((v0 == 0 && v1 == 1) || (v0 == 1 && v1 == 0)) {
		t.Errorf("flap did not alternate full-on/full-off: %v then %v", v0, v1)
	}
}

// Stale replay must deep-copy the cache: mutating a replayed sample must
// not corrupt later replays.
func TestStaleReplayDoesNotAlias(t *testing.T) {
	inj := MustInjector(Spec{Seed: 1, Stale: 1})
	inj.PerturbSample(0, "kelp", sample()) // caches the clean reading
	replay1, _ := inj.PerturbSample(1, "kelp", sample())
	replay1.SocketBW[0] = -999
	replay2, _ := inj.PerturbSample(2, "kelp", sample())
	if replay2.SocketBW[0] == -999 {
		t.Error("stale cache aliased a previously returned sample")
	}
}

// Each controller has its own stale cache and flap phase.
func TestPerControllerState(t *testing.T) {
	inj := MustInjector(Spec{Seed: 1, Stale: 1})
	a := sample()
	a.SocketBW[0] = 1
	b := sample()
	b.SocketBW[0] = 2
	inj.PerturbSample(0, "kelp", a)
	inj.PerturbSample(0, "throttler", b)
	ra, _ := inj.PerturbSample(1, "kelp", sample())
	rb, _ := inj.PerturbSample(1, "throttler", sample())
	if ra.SocketBW[0] != 1 || rb.SocketBW[0] != 2 {
		t.Errorf("stale caches crossed controllers: kelp=%v throttler=%v", ra.SocketBW[0], rb.SocketBW[0])
	}
}

func TestActuatorGate(t *testing.T) {
	proc := cpu.MustProcessor(cpu.DefaultTopology())

	// actfail=1: every attempt errors; the write never lands.
	cg := cgroup.NewManager(proc)
	if _, err := cg.Create("g", cgroup.Low); err != nil {
		t.Fatal(err)
	}
	inj := MustInjector(Spec{Seed: 1, ActFail: 1})
	err := inj.SetCPUs(0, cg, "g", cpu.Set{0, 1, 2})
	if err == nil || !strings.Contains(err.Error(), "did not take") {
		t.Fatalf("actfail=1 SetCPUs: %v", err)
	}
	g, _ := cg.Group("g")
	if g.CPUs().Len() != 0 {
		t.Errorf("failed write still landed: %d cores", g.CPUs().Len())
	}
	if inj.Counts()["act.fail"] != ActRetries {
		t.Errorf("act.fail count = %d, want %d", inj.Counts()["act.fail"], ActRetries)
	}

	// actstick=1: reported success but nothing written; read-back catches
	// it and the bounded retry loop gives up.
	cg = cgroup.NewManager(proc)
	cg.Create("g", cgroup.Low)
	inj = MustInjector(Spec{Seed: 1, ActStick: 1})
	if err := inj.SetCPUs(0, cg, "g", cpu.Set{0, 1, 2}); err == nil {
		t.Error("actstick=1 SetCPUs reported success")
	}
	g, _ = cg.Group("g")
	if g.CPUs().Len() != 0 {
		t.Errorf("stuck write still landed: %d cores", g.CPUs().Len())
	}

	// A stuck write to an already-correct value is invisible: read-back
	// matches, so no error.
	if err := inj.SetCPUs(0, cg, "g", cpu.Set{}); err != nil {
		t.Errorf("stuck no-op write errored: %v", err)
	}

	// actpartial=1 on cpusets: one core short every attempt.
	cg = cgroup.NewManager(proc)
	cg.Create("g", cgroup.Low)
	inj = MustInjector(Spec{Seed: 1, ActPartial: 1})
	if err := inj.SetCPUs(0, cg, "g", cpu.Set{0, 1, 2}); err == nil {
		t.Error("actpartial=1 SetCPUs reported success")
	}
	g, _ = cg.Group("g")
	if got := g.CPUs().Len(); got != 2 {
		t.Errorf("partial write landed %d cores, want 2", got)
	}

	// With no actuator faults the gated write succeeds and is verified.
	cg = cgroup.NewManager(proc)
	cg.Create("g", cgroup.Low)
	inj = MustInjector(Spec{Seed: 1, Drop: 0.5}) // sensor-only spec
	if err := inj.SetCPUs(0, cg, "g", cpu.Set{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := inj.SetMBA(0, cg, "g", 30); err != nil {
		t.Fatal(err)
	}
	if err := inj.SetPrefetchCount(0, cg, "g", 2); err != nil {
		t.Fatal(err)
	}
	g, _ = cg.Group("g")
	if g.CPUs().Len() != 2 || g.MBAPercent() != 30 {
		t.Errorf("clean gated writes: cores=%d mba=%d", g.CPUs().Len(), g.MBAPercent())
	}
	if on, _ := cg.PrefetchersOn("g"); on != 2 {
		t.Errorf("clean gated prefetch write: %d on", on)
	}
}

// An intermittent actuator fault is absorbed by the retry loop: with fail
// probability well under 1, three attempts almost always land the write.
func TestActuatorRetryAbsorbsIntermittentFaults(t *testing.T) {
	proc := cpu.MustProcessor(cpu.DefaultTopology())
	cg := cgroup.NewManager(proc)
	cg.Create("g", cgroup.Low)
	inj := MustInjector(Spec{Seed: 5, ActFail: 0.3})
	failures := 0
	for i := 0; i < 100; i++ {
		want := cpu.Set{i % 4}
		if err := inj.SetCPUs(float64(i), cg, "g", want); err != nil {
			failures++
		}
	}
	// P(three consecutive fails) = 0.027; ~2.7 expected over 100 writes.
	if failures > 15 {
		t.Errorf("retry loop absorbed too little: %d/100 writes failed", failures)
	}
	if inj.Counts()["act.fail"] == 0 {
		t.Error("no faults fired at actfail=0.3")
	}
}

func TestSetMBAGate(t *testing.T) {
	proc := cpu.MustProcessor(cpu.DefaultTopology())
	cg := cgroup.NewManager(proc)
	cg.Create("g", cgroup.Low)
	inj := MustInjector(Spec{Seed: 2, ActStick: 1})
	if err := inj.SetMBA(0, cg, "g", 40); err == nil {
		t.Error("actstick=1 SetMBA reported success")
	}
	g, _ := cg.Group("g")
	if g.MBAPercent() != 100 {
		t.Errorf("stuck MBA write landed: %d%%", g.MBAPercent())
	}
}

func TestNewInjectorRejectsInvalidSpec(t *testing.T) {
	if _, err := NewInjector(Spec{Drop: 2}); err == nil {
		t.Error("drop=2 accepted")
	}
	if _, err := NewInjector(Spec{SpikeMag: 0.5}); err == nil {
		t.Error("spikemag=0.5 accepted")
	}
	if _, err := NewInjector(Spec{NaN: math.NaN()}); err == nil {
		t.Error("NaN probability accepted")
	}
}

// The normalized spec fills in the default spike magnitude.
func TestSpikeMagDefault(t *testing.T) {
	inj := MustInjector(Spec{Spike: 0.1})
	if inj.Spec().SpikeMag != DefaultSpikeMag {
		t.Errorf("SpikeMag = %v, want default %v", inj.Spec().SpikeMag, DefaultSpikeMag)
	}
}

// TestInjectorStateRoundTrip pins that State captures the injector's whole
// position: an injector restored from a mid-run state and the original make
// identical decisions and keep identical counts over the following draws,
// and the state survives being restored twice.
func TestInjectorStateRoundTrip(t *testing.T) {
	spec := Spec{Seed: 5, Drop: 0.15, Stale: 0.2, NaN: 0.1, Spike: 0.1, Flap: 0.2,
		ActFail: 0.1, ActStick: 0.1, ActPartial: 0.1, Stall: 0.1}
	proc := cpu.MustProcessor(cpu.DefaultTopology())
	// drive runs periods control periods of three controllers, each with
	// a cpuset write, and renders every decision. Each period's sample is
	// distinct, so a stale replay shows which sample it held.
	drive := func(inj *Injector, from, periods int) []string {
		var out []string
		for p := from; p < from+periods; p++ {
			now := float64(p)
			for _, ctrl := range []string{"kelp", "throttler", "mba"} {
				in := sample()
				in.SocketBW[0] += now
				s, dropped := inj.PerturbSample(now, ctrl, in)
				cg := cgroup.NewManager(proc)
				if _, err := cg.Create("g", cgroup.Low); err != nil {
					t.Fatal(err)
				}
				err := inj.SetCPUs(now, cg, "g", cpu.Set{0, 1, 2})
				out = append(out, fmt.Sprint(inj.Stall(now, ctrl), dropped, s, err))
			}
		}
		return out
	}
	orig := MustInjector(spec)
	drive(orig, 0, 100)
	st := orig.State()
	if len(st.Last) != 3 || len(st.FlapHigh) != 3 || len(st.NaNMetric) != 3 {
		t.Fatalf("state holds stale, flap and poison memory for %d, %d and %d controllers, want 3 each",
			len(st.Last), len(st.FlapHigh), len(st.NaNMetric))
	}
	want := drive(orig, 100, 200)

	for attempt := range 2 {
		restored := MustInjector(spec)
		if err := restored.Restore(st); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.State(), st) {
			t.Fatalf("restore %d: state %+v, want %+v", attempt, restored.State(), st)
		}
		got := drive(restored, 100, 200)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("restore %d: decision %d = %s, want %s", attempt, i, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(restored.Counts(), orig.Counts()) {
			t.Errorf("restore %d: counts %v, want %v", attempt, restored.Counts(), orig.Counts())
		}
	}
	for _, class := range []string{"drop", "stale", "nan", "spike", "flap", "stall", "act.fail", "act.stick", "act.partial"} {
		if orig.Counts()[class] == 0 {
			t.Errorf("fault class %s never fired; the test does not exercise it", class)
		}
	}

	bad := orig.State()
	bad.Streams[3] = 0
	if err := MustInjector(spec).Restore(bad); err == nil {
		t.Error("state with a zero stream accepted")
	}
}
