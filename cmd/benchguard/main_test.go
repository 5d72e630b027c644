package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

const rawBench = `goos: linux
pkg: kelp/internal/memsys
BenchmarkResolveSteady-8   	 1000000	       850.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkResolveSteady-8   	 1000000	       810.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkResolve-8         	 1000000	       900.0 ns/op	       0 B/op	       0 allocs/op
pkg: kelp/internal/sim
BenchmarkEngineTick-8      	171651536	         7.100 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseBenchTakesMinimum(t *testing.T) {
	got, err := parseBench(strings.NewReader(rawBench))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkResolveSteady"] != 810 {
		t.Errorf("min ns/op = %v, want 810", got["BenchmarkResolveSteady"])
	}
	if got["BenchmarkEngineTick"] != 7.1 {
		t.Errorf("EngineTick = %v, want 7.1", got["BenchmarkEngineTick"])
	}
	if got["BenchmarkResolve"] != 900 {
		t.Errorf("Resolve = %v, want 900", got["BenchmarkResolve"])
	}
}

func TestBaselineLayersSnapshots(t *testing.T) {
	parse := func(raw string) *snapshot {
		var s snapshot
		if err := json.Unmarshal([]byte(raw), &s); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	older := parse(`{"benchmarks": [
		{"name": "BenchmarkResolveSteady", "metrics": {"ns/op": 807}},
		{"name": "BenchmarkNodeStepClean", "metrics": {"ns/op": 238}}]}`)
	newer := parse(`{"benchmarks": [
		{"name": "BenchmarkNodeStepClean", "metrics": {"ns/op": 230}},
		{"name": "BenchmarkFleetBuild/kelp", "metrics": {"ns/op": 15000000}}]}`)
	got := baselineNsOp(older, newer)
	want := map[string]float64{
		"BenchmarkResolveSteady":   807,      // only the older snapshot records it
		"BenchmarkNodeStepClean":   230,      // the newer snapshot wins
		"BenchmarkFleetBuild/kelp": 15000000, // only the newer snapshot records it
	}
	if len(got) != len(want) {
		t.Errorf("baseline = %v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s baseline = %v, want %v", name, got[name], v)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := map[string]float64{
		"BenchmarkResolveSteady": 800,
		"BenchmarkEngineTick":    7,
	}
	match := regexp.MustCompile(`^(BenchmarkResolveSteady|BenchmarkEngineTick)$`)

	// Within the ratio: EngineTick up 14%, ResolveSteady slightly faster.
	info, failures := compare(base, map[string]float64{
		"BenchmarkResolveSteady": 780,
		"BenchmarkEngineTick":    8,
		"BenchmarkResolve":       5000, // unguarded, ignored
	}, match, 1.25)
	if len(failures) != 0 {
		t.Errorf("unexpected failures: %v", failures)
	}
	if len(info) != 2 {
		t.Errorf("info lines = %v, want 2 guarded comparisons", info)
	}

	// Beyond the ratio: ResolveSteady up 50%.
	_, failures = compare(base, map[string]float64{
		"BenchmarkResolveSteady": 1200,
		"BenchmarkEngineTick":    7,
	}, match, 1.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkResolveSteady") {
		t.Errorf("failures = %v, want ResolveSteady flagged", failures)
	}

	// A guarded benchmark with no baseline is skipped, not failed.
	_, failures = compare(map[string]float64{}, map[string]float64{
		"BenchmarkEngineTick": 7,
	}, match, 1.25)
	if len(failures) != 0 {
		t.Errorf("missing baseline should skip, got %v", failures)
	}
}

func TestEmitBaselineFormat(t *testing.T) {
	var sb strings.Builder
	emitBaseline(&sb, map[string]float64{
		"BenchmarkEngineTick":    7,
		"BenchmarkResolveSteady": 800,
		"BenchmarkResolve":       900,
	}, regexp.MustCompile(`^(BenchmarkResolveSteady|BenchmarkEngineTick)$`))
	want := "BenchmarkEngineTick-1 1 7 ns/op\nBenchmarkResolveSteady-1 1 800 ns/op\n"
	if sb.String() != want {
		t.Errorf("emitted:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestDefaultMatchGuardsHotPaths(t *testing.T) {
	re := regexp.MustCompile(defaultMatch)
	for _, name := range []string{
		"BenchmarkResolveSteady", "BenchmarkEngineTick", "BenchmarkNodeStepClean",
		"BenchmarkFleetTick", "BenchmarkFleetBuild/random", "BenchmarkFleetBuild/kelp",
		"BenchmarkSessionAdvance", "BenchmarkMiddlewareOverhead",
	} {
		if !re.MatchString(name) {
			t.Errorf("%s is not guarded", name)
		}
	}
	for _, name := range []string{"BenchmarkNodeStep", "BenchmarkResolve", "BenchmarkFleetBuild"} {
		if re.MatchString(name) {
			t.Errorf("%s is guarded but should not be", name)
		}
	}
}
