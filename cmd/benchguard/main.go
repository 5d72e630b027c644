// Command benchguard compares two `go test -bench -benchmem` outputs taken
// on the same host, one from a base commit and one from the change, and
// exits non-zero when a guarded benchmark regressed: its minimum ns/op
// grew beyond the allowed ratio of the base's, or its allocs/op grew at
// all. scripts/bench_guard.sh builds both sides and runs them interleaved.
//
// The minimum across repeated runs is the usual noise-robust statistic for
// "how fast can this go" on a shared machine, and comparing against a base
// measured on the same host, in the same minutes, keeps the host out of
// the ratio. allocs/op does not depend on the host, so it is gated exactly.
//
// The committed BENCH_*.json snapshots (scripts/bench.sh) remain the
// trajectory record: with -baseline, each guarded benchmark is also printed
// against its ns/op in the last listed snapshot that records it, as a
// report line that never fails the run. Snapshots layer: -baseline may be
// given several times, oldest first.
//
//	go run ./cmd/benchguard -base base.txt -bench head.txt
//	go run ./cmd/benchguard -base base.txt -bench head.txt -baseline BENCH_a.json -baseline BENCH_b.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// snapshot mirrors the JSON scripts/bench.sh writes.
type snapshot struct {
	Date       string `json:"date"`
	Benchmarks []struct {
		Package string             `json:"package"`
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

// baselineNsOp extracts ns/op per benchmark name from snapshots listed
// oldest first: a later snapshot's value replaces an earlier one's.
func baselineNsOp(snaps ...*snapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range snaps {
		for _, b := range s.Benchmarks {
			if v, ok := b.Metrics["ns/op"]; ok {
				out[b.Name] = v
			}
		}
	}
	return out
}

// fileList is a repeatable string flag.
type fileList []string

func (f *fileList) String() string     { return strings.Join(*f, ",") }
func (f *fileList) Set(v string) error { *f = append(*f, v); return nil }

// measure is one benchmark's minimum ns/op and allocs/op over its runs;
// allocs is -1 when no run reported it.
type measure struct {
	ns, allocs float64
}

// parseBench extracts each benchmark's minimum ns/op and allocs/op from raw
// `go test -bench` output. The -N GOMAXPROCS suffix is stripped so names
// line up across outputs and with the snapshots'.
func parseBench(r io.Reader) (map[string]measure, error) {
	out := make(map[string]measure)
	sc := bufio.NewScanner(r)
	suffix := regexp.MustCompile(`-[0-9]+$`)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := suffix.ReplaceAllString(f[0], "")
		m, seen := out[name]
		if !seen {
			m.allocs = -1
		}
		for i := 2; i+1 < len(f); i += 2 {
			unit := f[i+1]
			if unit != "ns/op" && unit != "allocs/op" {
				continue
			}
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchguard: bad %s on %q: %v", unit, sc.Text(), err)
			}
			switch {
			case unit == "ns/op" && (!seen || v < m.ns):
				m.ns = v
			case unit == "allocs/op" && (m.allocs < 0 || v < m.allocs):
				m.allocs = v
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

// guarded returns the names in fresh that match, sorted.
func guarded(fresh map[string]measure, match *regexp.Regexp) []string {
	var names []string
	for name := range fresh {
		if match.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// compare returns one line per guarded benchmark of head and one failure
// line per benchmark whose ns/op exceeds base's by more than maxRatio or
// whose allocs/op exceeds base's (when base reported it). A benchmark base
// did not run is reported and skipped.
func compare(base, head map[string]measure, match *regexp.Regexp, maxRatio float64) (info, failures []string) {
	for _, name := range guarded(head, match) {
		b, ok := base[name]
		if !ok || b.ns <= 0 {
			info = append(info, fmt.Sprintf("%s: not run at the base, skipping", name))
			continue
		}
		h := head[name]
		ratio := h.ns / b.ns
		line := fmt.Sprintf("%s: %.4g ns/op vs base %.4g ns/op (%.2fx), %v vs %v allocs/op",
			name, h.ns, b.ns, ratio, h.allocs, b.allocs)
		info = append(info, line)
		if ratio > maxRatio || b.allocs >= 0 && h.allocs > b.allocs {
			failures = append(failures, line)
		}
	}
	return info, failures
}

// report returns one line per guarded benchmark of head against its
// snapshot baseline.
func report(snap map[string]float64, head map[string]measure, match *regexp.Regexp) []string {
	var out []string
	for _, name := range guarded(head, match) {
		if old, ok := snap[name]; ok && old > 0 {
			out = append(out, fmt.Sprintf("%s: %.4g ns/op vs snapshot %.4g ns/op (%.2fx, report only)",
				name, head[name].ns, old, head[name].ns/old))
		}
	}
	return out
}

// defaultMatch names the guarded benchmarks: the memory-system fixed
// point, simulation dispatch and the clean node tick that every experiment
// cell multiplies by millions of ticks, the fleet study's composition tick
// and its placement (every policy's sub-benchmark), and the session
// server's request hot path.
const defaultMatch = `^(BenchmarkResolveSteady|BenchmarkEngineTick|BenchmarkNodeStepClean|BenchmarkFleetTick|BenchmarkFleetBuild/.+|BenchmarkSessionAdvance|BenchmarkMiddlewareOverhead)$`

func main() {
	var baselines fileList
	flag.Var(&baselines, "baseline", "BENCH_*.json snapshot to report against (never gates); repeat it, oldest first, to layer snapshots")
	baseFile := flag.String("base", "", "raw `go test -bench -benchmem` output of the base commit")
	benchFile := flag.String("bench", "", "raw `go test -bench -benchmem` output of the change")
	match := flag.String("match", defaultMatch, "regexp of benchmark names to guard")
	maxRatio := flag.Float64("max-ratio", 1.25, "fail when the change's minimum ns/op exceeds the base's by this ratio")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *baseFile == "" || *benchFile == "" {
		fail(fmt.Errorf("benchguard: -base and -bench are required"))
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fail(err)
	}
	parseFile := func(path string) map[string]measure {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		m, err := parseBench(f)
		if err != nil {
			fail(err)
		}
		return m
	}
	base, head := parseFile(*baseFile), parseFile(*benchFile)

	snaps := make([]*snapshot, len(baselines))
	for i, path := range baselines {
		raw, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		snaps[i] = new(snapshot)
		if err := json.Unmarshal(raw, snaps[i]); err != nil {
			fail(fmt.Errorf("benchguard: %s: %v", path, err))
		}
	}
	for _, line := range report(baselineNsOp(snaps...), head, re) {
		fmt.Println(line)
	}

	info, failures := compare(base, head, re, *maxRatio)
	for _, line := range info {
		fmt.Println(line)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d benchmark(s) regressed against the base (over %.2fx ns/op, or more allocs/op):\n", len(failures), *maxRatio)
		for _, line := range failures {
			fmt.Fprintln(os.Stderr, "  "+line)
		}
		os.Exit(1)
	}
	if len(info) == 0 {
		fail(fmt.Errorf("benchguard: no benchmarks matched %q in %s", *match, *benchFile))
	}
}
