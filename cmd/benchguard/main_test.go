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
BenchmarkResolve-8         	 1000000	       900.0 ns/op
pkg: kelp/internal/httpd
BenchmarkSessionAdvance-8  	   40000	     27900 ns/op	    4096 B/op	      53 allocs/op
BenchmarkSessionAdvance-8  	   40000	     28100 ns/op	    4096 B/op	      52 allocs/op
PASS
`

func TestParseBenchTakesMinimum(t *testing.T) {
	got, err := parseBench(strings.NewReader(rawBench))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]measure{
		"BenchmarkResolveSteady":  {ns: 810, allocs: 0},
		"BenchmarkResolve":        {ns: 900, allocs: -1}, // no -benchmem columns
		"BenchmarkSessionAdvance": {ns: 27900, allocs: 52},
	} {
		if got[name] != want {
			t.Errorf("%s = %+v, want %+v", name, got[name], want)
		}
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
	base := map[string]measure{
		"BenchmarkResolveSteady": {ns: 800, allocs: 0},
		"BenchmarkEngineTick":    {ns: 7, allocs: 0},
	}
	match := regexp.MustCompile(`^(BenchmarkResolveSteady|BenchmarkEngineTick)$`)

	// Within the ratio: EngineTick up 14%, ResolveSteady slightly faster.
	info, failures := compare(base, map[string]measure{
		"BenchmarkResolveSteady": {ns: 780, allocs: 0},
		"BenchmarkEngineTick":    {ns: 8, allocs: 0},
		"BenchmarkResolve":       {ns: 5000, allocs: 3}, // unguarded, ignored
	}, match, 1.25)
	if len(failures) != 0 {
		t.Errorf("unexpected failures: %v", failures)
	}
	if len(info) != 2 {
		t.Errorf("info lines = %v, want 2 guarded comparisons", info)
	}

	// Beyond the ratio: ResolveSteady up 50%.
	_, failures = compare(base, map[string]measure{
		"BenchmarkResolveSteady": {ns: 1200, allocs: 0},
		"BenchmarkEngineTick":    {ns: 7, allocs: 0},
	}, match, 1.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkResolveSteady") {
		t.Errorf("failures = %v, want ResolveSteady flagged", failures)
	}

	// One more allocation fails at any speed; one fewer passes.
	_, failures = compare(base, map[string]measure{
		"BenchmarkResolveSteady": {ns: 700, allocs: 1},
		"BenchmarkEngineTick":    {ns: 7, allocs: 0},
	}, match, 1.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkResolveSteady") {
		t.Errorf("failures = %v, want ResolveSteady's allocation flagged", failures)
	}
	_, failures = compare(map[string]measure{"BenchmarkEngineTick": {ns: 7, allocs: 2}},
		map[string]measure{"BenchmarkEngineTick": {ns: 7, allocs: 1}}, match, 1.25)
	if len(failures) != 0 {
		t.Errorf("fewer allocations flagged: %v", failures)
	}

	// A guarded benchmark the base did not run is skipped, not failed.
	_, failures = compare(map[string]measure{}, map[string]measure{
		"BenchmarkEngineTick": {ns: 7, allocs: 0},
	}, match, 1.25)
	if len(failures) != 0 {
		t.Errorf("missing base should skip, got %v", failures)
	}
}

func TestReportAgainstSnapshot(t *testing.T) {
	got := report(map[string]float64{"BenchmarkEngineTick": 7, "BenchmarkResolveSteady": 800},
		map[string]measure{"BenchmarkEngineTick": {ns: 14}, "BenchmarkNodeStepClean": {ns: 60}},
		regexp.MustCompile(defaultMatch))
	want := []string{"BenchmarkEngineTick: 14 ns/op vs snapshot 7 ns/op (2.00x, report only)"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("report = %q, want %q", got, want)
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
