// Command perfbench is the repository's benchmark: one command that runs a
// named workload for a fixed time, checks that the program's outputs are
// correct, and prints every end-to-end metric (or, with -trace 1, every
// per-layer metric) as the last line of standard output, in the shape
// BENCHMARK.json at the repository root declares.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep|fleet|serve --seed N --seconds S --trace 0|1
//
// run.sh builds this package from source into .bench_build/ and runs it.
// See perfbench/README.md for the workloads, the metrics and how the
// per-layer numbers attribute to the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// buildDir holds everything a run leaves behind: the binary, the Go build
// cache, persist directories and span files. It is relative to the
// repository root, which is the working directory of every run.
const buildDir = ".bench_build"

// spec is the part of BENCHMARK.json the benchmark reads: the metric names
// and units it must report. Keeping them in one file means the printed
// result and the declared contract cannot drift apart.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// opts are one run's arguments.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// report is what a workload measured. e2e and layers are keyed by the
// metric names of BENCHMARK.json; a workload fills e2e in every run and
// layers only in a traced run. A per-layer metric a workload leaves unset
// is reported as 0: that layer did no work in that workload.
type report struct {
	attempted, failed int
	e2e, layers       map[string]float64
	// problems are failed output checks; any one fails the run.
	problems []string
	// notes are printed before the result line (sample counts, check
	// outcomes) for a reader of the log.
	notes []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(o opts, tr *tracer) (*report, error){
	"sweep": runSweep,
	"fleet": runFleet,
	"serve": runServe,
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep, fleet or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (sweep ignores it)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o opts) error {
	drive, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	printMeta(o)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep, err := drive(o, tr)
	if err != nil {
		return err
	}
	if o.trace {
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", buildDir, o.workload, o.seed)
		if err := tr.writeJSONL(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rep.layers["trace.spans"] = float64(tr.count())
		rep.note("spans: %d written to %s", tr.count(), path)
	}
	if rep.failed > 0 {
		rep.fail("%d of %d operations failed", rep.failed, rep.attempted)
	}
	rep.layers["fail_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))

	want, got := sp.EndToEnd, rep.e2e
	if o.trace {
		want, got = sp.PerLayer, rep.layers
	}
	metrics, err := collect(want, got, !o.trace)
	if err != nil {
		return err
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect shapes the measured values into the declared metric set. A
// measured name the spec does not declare is a benchmark bug. A declared
// end-to-end metric the workload did not measure is one too; a declared
// per-layer metric it did not measure is 0.
func collect(want []metricSpec, got map[string]float64, required bool) (map[string]metric, error) {
	declared := map[string]bool{}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		declared[m.Name] = true
		v, ok := got[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", m.Name, v)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	var extra []string
	for n := range got {
		if !declared[n] {
			extra = append(extra, n)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", extra)
	}
	return out, nil
}

// printMeta records the run's environment. fsync latency in the durable
// workload belongs to the filesystem named here, on this host, not to a
// storage device's specification.
func printMeta(o opts) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	seedUse := "fleet.Config.Seed (fleet); fault-injected durable sessions and verify sampling (serve)"
	if o.workload == "sweep" {
		seedUse = "ignored: the sweep has fixed inputs"
	}
	meta, _ := json.Marshal(map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seed_use":   seedUse,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"persist_fs": fsType(buildDir),
	})
	fmt.Println("meta:", string(meta))
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x65735546: "fuse",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("statfs type %#x", st.Type)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
