// Command kelpsim runs one workload mix under one policy and prints the
// normalized results and the controller's actuator trace.
//
// Usage:
//
//	kelpsim -ml CNN1 -cpu Stitch -policy KP [-duration 5] [-parallel N] [-events out.jsonl] [-faults spec]
//
// -events writes the colocated run's flight-recorder stream (admissions,
// controller actuations, distress transitions) as JSON Lines, one event per
// line; see docs/OBSERVABILITY.md.
//
// -faults injects deterministic faults into the controller's signal path
// (e.g. -faults seed=7,drop=0.3,actstick=0.1); the standalone baseline
// stays fault-free. See docs/RESILIENCE.md for the spec format and the
// degradation semantics.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"kelp/internal/events"
	"kelp/internal/experiments"
	"kelp/internal/faults"
	"kelp/internal/policy"
	"kelp/internal/profile"
	"kelp/internal/scenario"
	"kelp/internal/sim"
)

func parseML(s string) (experiments.MLKind, error) {
	for _, m := range experiments.MLKinds() {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown ML workload %q (RNN1, CNN1, CNN2, CNN3)", s)
}

func parseCPU(s string) (experiments.CPUKind, error) {
	for _, c := range experiments.BatchKinds() {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown CPU workload %q (Stream, Stitch, CPUML)", s)
}

func parsePolicy(s string) (policy.Kind, error) {
	for _, k := range policy.AllKinds() {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (BL, CT, KP-SD, KP)", s)
}

func main() {
	mlFlag := flag.String("ml", "CNN1", "accelerated workload: RNN1, CNN1, CNN2, CNN3")
	cpuFlag := flag.String("cpu", "Stitch", "low-priority workload: Stream, Stitch, CPUML")
	polFlag := flag.String("policy", "KP", "system configuration: BL, CT, KP-SD, KP, HW-FG, MBA")
	duration := flag.Float64("duration", 5, "total simulated seconds (warmup+measure)")
	scenarioPath := flag.String("scenario", "", "JSON scenario file (overrides -ml/-cpu/-policy)")
	profilePath := flag.String("profile", "", "JSON QoS profile for the accelerated task")
	parallel := flag.Int("parallel", 0, "concurrent scenario cells (0 = one per CPU, 1 = serial)")
	eventsPath := flag.String("events", "", "write the colocated run's flight-recorder events as JSONL to this file")
	faultsFlag := flag.String("faults", "", "fault injection spec, e.g. seed=7,drop=0.2,actstick=0.1 (see docs/RESILIENCE.md)")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "kelpsim:", err)
		os.Exit(1)
	}

	var (
		ml   experiments.MLKind
		pol  policy.Kind
		mix  []experiments.CPUSpec
		desc string
		err  error
	)
	h := experiments.NewHarness()
	h.Parallel = *parallel
	if *eventsPath != "" {
		h.Events = events.MustNew(events.DefaultCapacity)
	}
	spec, err := faults.ParseSpec(*faultsFlag)
	if err != nil {
		die(err)
	}
	h.Faults = spec

	if *scenarioPath != "" {
		spec, err := scenario.Load(*scenarioPath)
		if err != nil {
			die(err)
		}
		resolved, err := spec.Resolve()
		if err != nil {
			die(err)
		}
		ml, pol, mix = resolved.ML, resolved.Policy, resolved.CPU
		h.Warmup = resolved.Warmup
		h.Measure = resolved.Measure
		desc = fmt.Sprintf("%s + %d tasks (from %s)", ml, len(mix), *scenarioPath)
	} else {
		ml, err = parseML(*mlFlag)
		if err != nil {
			die(err)
		}
		cpuKind, err := parseCPU(*cpuFlag)
		if err != nil {
			die(err)
		}
		pol, err = parsePolicy(*polFlag)
		if err != nil {
			die(err)
		}
		if *duration > 1 {
			h.Warmup = sim.Duration(*duration) * 0.6
			h.Measure = sim.Duration(*duration) * 0.4
		}
		mix, err = experiments.MixFor(cpuKind)
		if err != nil {
			die(err)
		}
		desc = fmt.Sprintf("%s + %s", ml, cpuKind)
	}

	if *profilePath != "" {
		prof, err := profile.Load(*profilePath)
		if err != nil {
			die(err)
		}
		wm := prof.Materialize(h.Node.Memory)
		h.Opts.Watermarks = &wm
		if prof.SamplePeriodSec > 0 {
			h.Opts.SamplePeriod = prof.SamplePeriodSec
		}
		fmt.Printf("profile: %s (from %s)\n", prof.Name, *profilePath)
	}

	r, err := h.RunNormalized(ml, mix, pol)
	if err != nil {
		die(err)
	}

	fmt.Printf("mix: %s under %s\n", desc, pol)
	fmt.Printf("ML performance (vs standalone): %.3f\n", r.MLPerf)
	if r.MLTailNorm > 0 {
		fmt.Printf("ML 95%%-ile latency (vs standalone): %.3f\n", r.MLTailNorm)
	}
	fmt.Printf("CPU throughput (units/s): %.1f\n", r.CPUUnits)
	for _, name := range sortedKeys(r.Raw.PerTask) {
		fmt.Printf("  %-16s %.1f\n", name, r.Raw.PerTask[name])
	}
	c := r.Raw.Controls
	if c.Runtime {
		fmt.Printf("kelp runtime: lowCores=%d prefetchers=%d backfill=%d decisions=%d\n",
			c.LowCores, c.Prefetchers, c.BackfillCores, c.RuntimeDecisions)
	}
	if c.Throttler {
		fmt.Printf("core throttler: cores=%d decisions=%d\n", c.ThrottleCores, c.ThrottlerDecisions)
	}
	if f := r.Raw.Faults; f.Spec.Enabled() {
		fmt.Printf("faults: spec %s, %d injected, degraded=%v\n",
			f.Spec, f.Total, c.Degraded)
		for _, class := range sortedKeys(f.Counts) {
			fmt.Printf("  %-12s %d\n", class, f.Counts[class])
		}
	}

	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			die(err)
		}
		evs := h.Events.Events()
		if err := events.WriteJSONL(f, evs); err != nil {
			f.Close()
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Printf("events: %d written to %s (%d dropped by the ring)\n",
			len(evs), *eventsPath, h.Events.Dropped())
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
