package profile

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"kelp/internal/core"
	"kelp/internal/memsys"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default("CNN1").Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Watermarks.HiPriorityBWLowFrac = p.Watermarks.HiPriorityBWHighFrac + 1 },
		func(p *Profile) { p.Watermarks.SocketBWHighFrac = 0 },
		func(p *Profile) { p.Watermarks.SocketBWHighFrac = 1.5 },
		func(p *Profile) { p.Watermarks.LatencyHighX = 0 },
		func(p *Profile) { p.Watermarks.SaturationHigh = 1.5 },
		func(p *Profile) { p.MinLowCores = 0 },
		func(p *Profile) { p.MaxBackfillCores = -1 },
		func(p *Profile) { p.SamplePeriodSec = 0 },
	}
	for i, mut := range mutations {
		p := Default("x")
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestMaterializeMatchesCoreDefaults(t *testing.T) {
	mem := memsys.DefaultConfig()
	got := Default("x").Materialize(mem)
	want := core.DefaultWatermarks(mem.BWPerController, mem.BaseLatency)
	if math.Abs(got.HiPriorityBWHigh-want.HiPriorityBWHigh) > 1 ||
		math.Abs(got.SocketBWHigh-want.SocketBWHigh) > 1 ||
		math.Abs(got.LatencyHigh-want.LatencyHigh) > 1e-12 ||
		got.SaturationHigh != want.SaturationHigh {
		t.Errorf("materialized = %+v, want %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMaterializeScalesWithMachine(t *testing.T) {
	small := memsys.DefaultConfig()
	big := small
	big.BWPerController *= 2
	p := Default("x")
	if !(p.Materialize(big).HiPriorityBWHigh > p.Materialize(small).HiPriorityBWHigh) {
		t.Error("watermarks did not scale with controller bandwidth")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := Default("RNN1")
	p.Watermarks.SaturationHigh = 0.07
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip changed profile: %+v vs %+v", got, p)
	}
}

func TestDecodeRejectsBadJSON(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"name":""}`,
		`{"name":"x","unknown_field":1}`,
	}
	for _, s := range cases {
		if _, err := Decode(strings.NewReader(s)); err == nil {
			t.Errorf("Decode(%q) accepted", s)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	p := Default("x")
	p.MinLowCores = 0
	if err := p.Encode(&bytes.Buffer{}); err == nil {
		t.Error("invalid profile encoded")
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rnn1.json")
	p := Default("RNN1")
	if err := Save(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("loaded %+v, want %+v", got, p)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	custom := Default("CNN1")
	custom.SamplePeriodSec = 5
	if err := r.Put(custom); err != nil {
		t.Fatal(err)
	}
	if got := r.Get("CNN1"); got.SamplePeriodSec != 5 {
		t.Errorf("Get returned %+v", got)
	}
	// Unprofiled tasks fall back to the conservative default.
	fallback := r.Get("mystery")
	if fallback.Name != "mystery" || fallback.SamplePeriodSec != 10 {
		t.Errorf("fallback = %+v", fallback)
	}
	bad := Default("x")
	bad.MinLowCores = 0
	if err := r.Put(bad); err == nil {
		t.Error("invalid profile stored")
	}
	if len(r.profiles) != 1 {
		t.Errorf("registry holds %d profiles, want 1", len(r.profiles))
	}
}

// NaN compares false against every ordering check, so a NaN watermark
// would previously sail through Validate and wedge the control loop at
// NOP. Malformed profiles must be rejected at admission.
func TestValidateRejectsNonFinite(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Profile)
	}{
		{"NaN hi frac", func(p *Profile) { p.Watermarks.SocketBWHighFrac = math.NaN() }},
		{"NaN low frac", func(p *Profile) { p.Watermarks.SocketBWLowFrac = math.NaN() }},
		{"NaN latency", func(p *Profile) { p.Watermarks.LatencyHighX = math.NaN() }},
		{"NaN saturation", func(p *Profile) { p.Watermarks.SaturationLow = math.NaN() }},
		{"Inf latency", func(p *Profile) { p.Watermarks.LatencyHighX = math.Inf(1) }},
		{"-Inf low", func(p *Profile) { p.Watermarks.HiPriorityBWLowFrac = math.Inf(-1) }},
		{"NaN period", func(p *Profile) { p.SamplePeriodSec = math.NaN() }},
	}
	for _, m := range mutations {
		p := Default("x")
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

// The registry is the admission point for scheduler-shipped profiles: Put
// must refuse malformed ones so they never reach a controller.
func TestRegistryRejectsMalformed(t *testing.T) {
	r := NewRegistry()
	bad := Default("evil")
	bad.Watermarks.LatencyHighX = math.NaN()
	if err := r.Put(bad); err == nil {
		t.Fatal("registry admitted a NaN profile")
	}
	// The rejected profile must not shadow the conservative default.
	got := r.Get("evil")
	if math.IsNaN(got.Watermarks.LatencyHighX) {
		t.Error("rejected profile was stored anyway")
	}
	inverted := Default("inv")
	inverted.Watermarks.SocketBWLowFrac = inverted.Watermarks.SocketBWHighFrac + 0.1
	if err := r.Put(inverted); err == nil {
		t.Error("registry admitted inverted watermarks")
	}
	negative := Default("neg")
	negative.MinLowCores = -3
	if err := r.Put(negative); err == nil {
		t.Error("registry admitted negative min_low_cores")
	}
	if err := r.Put(Default("good")); err != nil {
		t.Errorf("registry rejected a valid profile: %v", err)
	}
	if len(r.profiles) != 1 {
		t.Errorf("registry holds %d profiles, want 1", len(r.profiles))
	}
}
