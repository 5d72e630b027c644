// Command benchguard compares fresh `go test -bench` output against the
// committed BENCH_*.json snapshots (scripts/bench.sh) and exits non-zero
// when a guarded benchmark's ns/op regressed beyond the allowed ratio.
//
// Snapshots layer: -baseline may be given several times, oldest first, and
// each benchmark's baseline is its ns/op in the last listed snapshot that
// records it. A snapshot taken to baseline newly guarded benchmarks can
// therefore record only those, leaving the older baselines in force.
//
// It exists so CI can gate hot-path performance without installing
// anything: benchstat, when available, gives a nicer statistical report,
// but the pass/fail decision comes from this comparator. The new
// measurement is the minimum across repeated -count runs — the usual
// noise-robust statistic for "how fast can this go" on shared CI machines.
//
//	go run ./cmd/benchguard -baseline BENCH_2026-08-07.json -bench raw.txt
//	go run ./cmd/benchguard -baseline BENCH_a.json -baseline BENCH_b.json -bench raw.txt
//	go run ./cmd/benchguard -baseline BENCH_2026-08-07.json -emit-baseline old.txt
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"flag"
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

// parseBench extracts the minimum ns/op per benchmark name from raw
// `go test -bench` output. The -N GOMAXPROCS suffix is stripped so names
// line up with the snapshot's.
func parseBench(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	suffix := regexp.MustCompile(`-[0-9]+$`)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := suffix.ReplaceAllString(f[0], "")
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchguard: bad ns/op on %q: %v", sc.Text(), err)
			}
			if old, ok := out[name]; !ok || v < old {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// compare returns one failure line per guarded benchmark whose fresh ns/op
// exceeds baseline*maxRatio, and one informational line per comparison.
func compare(base, fresh map[string]float64, match *regexp.Regexp, maxRatio float64) (info, failures []string) {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		if match.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		old, ok := base[name]
		if !ok || old <= 0 {
			info = append(info, fmt.Sprintf("%s: no baseline, skipping", name))
			continue
		}
		ratio := fresh[name] / old
		line := fmt.Sprintf("%s: %.4g ns/op vs baseline %.4g ns/op (%.2fx)", name, fresh[name], old, ratio)
		info = append(info, line)
		if ratio > maxRatio {
			failures = append(failures, line)
		}
	}
	return info, failures
}

// emitBaseline renders the snapshot's guarded benchmarks in benchmark text
// format so benchstat can diff it against fresh output.
func emitBaseline(w io.Writer, base map[string]float64, match *regexp.Regexp) {
	names := make([]string, 0, len(base))
	for name := range base {
		if match.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s-1 1 %v ns/op\n", name, base[name])
	}
}

// defaultMatch names the guarded benchmarks: the memory-system fixed
// point, simulation dispatch and the clean node tick that every experiment
// cell multiplies by millions of ticks, the fleet study's composition tick
// and its placement (every policy's sub-benchmark), and the session
// server's request hot path.
const defaultMatch = `^(BenchmarkResolveSteady|BenchmarkEngineTick|BenchmarkNodeStepClean|BenchmarkFleetTick|BenchmarkFleetBuild/.+|BenchmarkSessionAdvance|BenchmarkMiddlewareOverhead)$`

func main() {
	var baselines fileList
	flag.Var(&baselines, "baseline", "BENCH_*.json snapshot to compare against; repeat it, oldest first, to layer snapshots")
	benchFile := flag.String("bench", "", "raw `go test -bench` output file")
	match := flag.String("match", defaultMatch, "regexp of benchmark names to guard")
	maxRatio := flag.Float64("max-ratio", 1.25, "fail when fresh ns/op exceeds baseline by this ratio")
	emit := flag.String("emit-baseline", "", "write the baseline in benchmark text format (for benchstat) and exit")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(baselines) == 0 {
		fail(fmt.Errorf("benchguard: -baseline is required"))
	}
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
	base := baselineNsOp(snaps...)
	re, err := regexp.Compile(*match)
	if err != nil {
		fail(err)
	}

	if *emit != "" {
		f, err := os.Create(*emit)
		if err != nil {
			fail(err)
		}
		emitBaseline(f, base, re)
		if err := f.Close(); err != nil {
			fail(err)
		}
		return
	}

	if *benchFile == "" {
		fail(fmt.Errorf("benchguard: -bench is required"))
	}
	bf, err := os.Open(*benchFile)
	if err != nil {
		fail(err)
	}
	fresh, err := parseBench(bf)
	bf.Close()
	if err != nil {
		fail(err)
	}

	info, failures := compare(base, fresh, re, *maxRatio)
	for _, line := range info {
		fmt.Println(line)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d benchmark(s) regressed beyond %.2fx of %s:\n", len(failures), *maxRatio, baselines.String())
		for _, line := range failures {
			fmt.Fprintln(os.Stderr, "  "+line)
		}
		os.Exit(1)
	}
	if len(info) == 0 {
		fail(fmt.Errorf("benchguard: no benchmarks matched %q in %s", *match, *benchFile))
	}
}
