package clusterfaults

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Seed: 7, Crash: 0.05},
		{Seed: 9, Crash: 0.06, Downtime: 1.5, RestartFail: 0.3, Hang: 0.25, HangDur: 0.6, Degrade: 0.1},
		{Hang: 0.125},
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip: %q -> %+v, want %+v", s.String(), got, s)
		}
	}
	if (Spec{}).String() != "off" {
		t.Errorf("zero spec renders %q, want off", (Spec{}).String())
	}
	for _, in := range []string{"", "off", "  off  "} {
		s, err := ParseSpec(in)
		if err != nil || s.Enabled() {
			t.Errorf("ParseSpec(%q) = %+v, %v; want disabled zero spec", in, s, err)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"crash",              // not key=value
		"bogus=1",            // unknown key
		"crash=x",            // not a number
		"seed=-1",            // seed must be uint
		"crash=-0.5",         // negative rate
		"restartfail=1.5",    // not a probability
		"downtime=-2",        // negative duration
		"hangdur=NaN",        // NaN duration
		"crash=0.1,hang=Inf", // infinite rate
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Error("zero spec enabled")
	}
	// Shape-only fields never enable injection on their own.
	if (Spec{Seed: 1, Downtime: 5, HangDur: 2, RestartFail: 1}).Enabled() {
		t.Error("spec with only shaping fields enabled")
	}
	for _, s := range []Spec{{Crash: 0.1}, {Hang: 0.1}, {Degrade: 0.1}} {
		if !s.Enabled() {
			t.Errorf("%+v not enabled", s)
		}
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var i *Injector
	if i.Crash(0, 1) || i.Hang(0, 1) || i.Degrade(0, 1) || i.RestartFails(0) {
		t.Error("nil injector fired a fault")
	}
	if i.Counts() != nil {
		t.Error("nil injector has counts")
	}
	if i.Spec() != (Spec{}) {
		t.Error("nil injector has a spec")
	}
}

func TestInjectorValidation(t *testing.T) {
	if _, err := NewInjector(Spec{Crash: -1}, 2); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewInjector(Spec{}, 0); err == nil {
		t.Error("zero workers accepted")
	}
	inj := MustInjector(Spec{Crash: 0.1}, 2)
	if inj.Spec().Downtime != DefaultDowntime || inj.Spec().HangDur != DefaultHangDur {
		t.Errorf("defaults not resolved: %+v", inj.Spec())
	}
}

// drawAll replays a fixed consultation pattern and returns every outcome.
func drawAll(inj *Injector, workers, steps int) []bool {
	var out []bool
	p := inj.Spec().StepProbs(0.05)
	for s := 0; s < steps; s++ {
		for w := 0; w < workers; w++ {
			out = append(out, inj.Hang(w, p.Hang))
			out = append(out, inj.Crash(w, p.Crash))
			out = append(out, inj.Degrade(w, p.Degrade))
		}
	}
	for w := 0; w < workers; w++ {
		out = append(out, inj.RestartFails(w))
	}
	return out
}

func TestSameSeedSameFaultSequence(t *testing.T) {
	spec := Spec{Seed: 123, Crash: 2, Hang: 3, Degrade: 1, RestartFail: 0.5}
	a := drawAll(MustInjector(spec, 3), 3, 200)
	b := drawAll(MustInjector(spec, 3), 3, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical (seed, spec) diverged")
	}
	spec2 := spec
	spec2.Seed = 124
	c := drawAll(MustInjector(spec2, 3), 3, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// Enabling one class must not shift another class's stream: crash draws
// are identical whether or not hangs are also enabled.
func TestClassStreamsAreIndependent(t *testing.T) {
	crashOnly := MustInjector(Spec{Seed: 5, Crash: 2}, 2)
	crashAndHang := MustInjector(Spec{Seed: 5, Crash: 2, Hang: 5}, 2)
	p := crashAndHang.Spec().StepProbs(0.05)
	for s := 0; s < 500; s++ {
		for w := 0; w < 2; w++ {
			crashAndHang.Hang(w, p.Hang) // extra draws on the hang streams
			a := crashOnly.Crash(w, p.Crash)
			b := crashAndHang.Crash(w, p.Crash)
			if a != b {
				t.Fatalf("crash stream shifted at step %d worker %d", s, w)
			}
		}
	}
}

// Worker streams are independent: adding a worker never changes an
// existing worker's fate.
func TestWorkerStreamsAreIndependent(t *testing.T) {
	spec := Spec{Seed: 11, Crash: 2}
	two := MustInjector(spec, 2)
	three := MustInjector(spec, 3)
	p := spec.StepProbs(0.05).Crash
	for s := 0; s < 500; s++ {
		three.Crash(2, p) // worker 2 consumes its own stream only
		for w := 0; w < 2; w++ {
			if two.Crash(w, p) != three.Crash(w, p) {
				t.Fatalf("worker %d fate changed with cluster size at step %d", w, s)
			}
		}
	}
}

func TestRateSemantics(t *testing.T) {
	inj := MustInjector(Spec{Seed: 1, Hang: 1}, 1) // crash rate 0
	for s := 0; s < 1000; s++ {
		if inj.Crash(0, inj.Spec().StepProbs(10).Crash) {
			t.Fatal("zero-rate class fired")
		}
	}
	// An enormous hazard over a long exposure practically always fires.
	hot := MustInjector(Spec{Seed: 1, Crash: 1000}, 1)
	fired := 0
	for s := 0; s < 100; s++ {
		if hot.Crash(0, hot.Spec().StepProbs(1).Crash) {
			fired++
		}
	}
	if fired < 100 {
		t.Errorf("saturated hazard fired %d/100", fired)
	}
	if c := hot.Counts(); len(c) != 1 || c["crash"] != uint64(fired) {
		t.Errorf("counts = %v, want %d crashes only", c, fired)
	}
}

// StepProbs is the exponential hazard 1 - exp(-rate*dur) per class, from
// the expression the replay's per-series tables are built with.
func TestStepProbs(t *testing.T) {
	s := Spec{Crash: 0.3, Hang: 2, Degrade: 0}
	for _, d := range []float64{0, 1e-9, 0.05, 1, 40} {
		p := s.StepProbs(d)
		want := Probs{Crash: -math.Expm1(-0.3 * d), Hang: -math.Expm1(-2 * d)}
		if p != want {
			t.Errorf("StepProbs(%v) = %+v, want %+v", d, p, want)
		}
		if math.Abs(p.Hang-(1-math.Exp(-2*d))) > 1e-12 {
			t.Errorf("StepProbs(%v).Hang = %v, want 1-exp(-2d)", d, p.Hang)
		}
	}
}

func TestStringOrderIsStable(t *testing.T) {
	s := Spec{Seed: 3, Degrade: 0.1, Crash: 0.2, Hang: 0.3}
	want := "seed=3,crash=0.2,hang=0.3,degrade=0.1"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !strings.HasPrefix(s.String(), "seed=") {
		t.Error("seed not first")
	}
}
