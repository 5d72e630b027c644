package scenario

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"kelp/internal/experiments"
	"kelp/internal/policy"
	"kelp/internal/workload"
	"os"
)

func goodSpec() Spec {
	return Spec{
		ML:     "CNN1",
		Policy: "KP",
		CPU: []TaskSpec{
			{Kind: "Stitch"},
			{Kind: "Stream", Threads: 6},
			{Kind: "DRAM", Level: "M", Backfill: true},
		},
	}
}

func TestResolve(t *testing.T) {
	r, err := goodSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.ML != experiments.CNN1 || r.Policy != policy.Kelp {
		t.Errorf("resolved %v/%v", r.ML, r.Policy)
	}
	if len(r.CPU) != 3 {
		t.Fatalf("cpu = %v", r.CPU)
	}
	if r.CPU[2].Level != workload.LevelMedium || !r.CPU[2].Backfill {
		t.Errorf("cpu[2] = %+v", r.CPU[2])
	}
	if r.Warmup != 3 || r.Measure != 2 {
		t.Errorf("default windows = %v/%v", r.Warmup, r.Measure)
	}
}

func TestResolveRejects(t *testing.T) {
	mutations := []func(*Spec){
		func(s *Spec) { s.ML = "GPT" },
		func(s *Spec) { s.Policy = "YOLO" },
		func(s *Spec) { s.CPU[0].Kind = "Mystery" },
		func(s *Spec) { s.CPU[2].Level = "X" },
		func(s *Spec) { s.CPU[1].Threads = -1 },
		func(s *Spec) { s.CPU[0].RemoteFrac = 2 },
		func(s *Spec) { s.MeasureSec = -1 },
	}
	for i, mut := range mutations {
		s := goodSpec()
		mut(&s)
		if _, err := s.Resolve(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	if ml, err := ParseML("rnn1"); err != nil || ml != experiments.RNN1 {
		t.Errorf("ParseML = %v, %v", ml, err)
	}
	if pol, err := ParsePolicy("hw-fg"); err != nil || pol != policy.FineGrained {
		t.Errorf("ParsePolicy = %v, %v", pol, err)
	}
	if lvl, err := ParseLevel(""); err != nil || lvl != workload.LevelHigh {
		t.Errorf("ParseLevel default = %v, %v", lvl, err)
	}
	if _, err := ParseLevel("Z"); err == nil {
		t.Error("bad level accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := goodSpec()
	s.WarmupSec = 1.5
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ML != s.ML || got.Policy != s.Policy || len(got.CPU) != len(s.CPU) ||
		got.WarmupSec != s.WarmupSec {
		t.Errorf("round trip: %+v vs %+v", got, s)
	}
}

func TestDecodeRejectsBadJSON(t *testing.T) {
	bad := []string{
		"",
		"{",
		`{"ml":"CNN1","policy":"KP","mystery":1}`,
		`{"ml":"CNN1","policy":"NOPE"}`,
	}
	for _, s := range bad {
		if _, err := Decode(strings.NewReader(s)); err == nil {
			t.Errorf("Decode(%q) accepted", s)
		}
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(goodSpec()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ML != "CNN1" {
		t.Errorf("loaded %+v", got)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestEndToEndRun resolves a spec and executes it through the harness.
func TestEndToEndRun(t *testing.T) {
	s := goodSpec()
	s.WarmupSec = 0.5
	s.MeasureSec = 0.5
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	h := experiments.NewHarness()
	h.Warmup = r.Warmup
	h.Measure = r.Measure
	res, err := h.RunNormalized(r.ML, r.CPU, r.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.MLPerf <= 0 {
		t.Errorf("ML perf = %v", res.MLPerf)
	}
}
