// Command kelpbench regenerates every table and figure of the paper's
// evaluation and prints the result tables.
//
// Usage:
//
//	kelpbench [-exp all|table1|fig2|fig3|fig5|fig7|fig9|fig10|fig13|fig14|fig15|fig16] [-quick] [-parallel N]
//
// -quick shortens warmup/measure windows for a fast smoke run; the shapes
// hold but averages are noisier.
//
// -parallel bounds how many scenario cells run concurrently (default: one
// per available CPU; 1 recovers the serial sweep). Every cell owns a fresh
// node with its own seeded RNG streams and results are collected in input
// order, so output is identical at any setting.
//
// -events out.jsonl attaches a flight recorder to every colocation run and
// writes the merged stream as JSON Lines when the sweep finishes. Recording
// forces -parallel 1 so the stream is deterministic; the tables themselves
// are identical with or without it. See docs/OBSERVABILITY.md.
//
// -faults spec injects deterministic faults into every colocation run's
// controller signal path (standalone baselines stay fault-free), and
// -exp resilience runs the dedicated fault-injection study (opt-in, not
// part of 'all'); see docs/RESILIENCE.md.
//
// -exp clusterfaults runs the cluster fault-tolerance study (also
// opt-in): lock-step training clusters under injected worker crashes,
// hangs and interference escalation, with checkpoint/restore recovery —
// reporting goodput, wasted-step fraction and recovery time per isolation
// policy. -cfaults spec replaces the standard regimes with a custom one
// (same -faultseed-rooted determinism); see docs/CLUSTER.md.
//
// -exp fleet runs the fleet-scale goodput study (opt-in as well): a
// synthetic fleet of -machines heterogeneous machines (default 2000)
// hosts lock-step training jobs and best-effort batch tasks under
// placement policies from random scatter to Kelp-aware packing, and the
// table reports fleet-wide ML Productivity Goodput, its availability /
// throughput / program components, the Kelp-on versus Kelp-off population
// split and batch throughput. -cfaults replaces the study's default churn
// regime; see docs/FLEET.md.
//
// -cpuprofile f / -memprofile f write pprof profiles of the run (CPU
// sampled across the whole run, heap snapshot at exit after a GC), for the
// hot-path workflow described in docs/PERFORMANCE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"kelp/internal/clusterfaults"
	"kelp/internal/events"
	"kelp/internal/experiments"
	"kelp/internal/faults"
	"kelp/internal/fleet"
	"kelp/internal/sim"
	"kelp/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma-separated), or 'all'")
	quick := flag.Bool("quick", false, "short windows for a smoke run")
	outdir := flag.String("outdir", "", "also write each table as CSV into this directory")
	parallel := flag.Int("parallel", 0, "concurrent scenario cells (0 = one per CPU, 1 = serial)")
	eventsPath := flag.String("events", "", "write flight-recorder events as JSONL (forces -parallel 1)")
	faultsFlag := flag.String("faults", "", "fault injection spec applied to every colocation run (see docs/RESILIENCE.md)")
	faultSeed := flag.Uint64("faultseed", 42, "PRNG seed for the resilience and clusterfaults studies' fault regimes")
	cfaultsFlag := flag.String("cfaults", "", "custom cluster fault spec for -exp clusterfaults and -exp fleet (see docs/CLUSTER.md)")
	machines := flag.Int("machines", 2000, "fleet size for -exp fleet")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	coldStart := flag.Bool("coldstart", false, "run the whole node pipeline on every tick and turn off the result cache of repeated sweep cells (simulate every cell; output is identical, only slower)")
	flag.Parse()

	if *coldStart {
		experiments.SetWarmStart(false)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kelpbench: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "kelpbench: -cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "kelpbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "kelpbench: -memprofile:", err)
			}
		}()
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "kelpbench:", err)
			os.Exit(1)
		}
	}
	emit := func(name string, t *experiments.Table) error {
		fmt.Println(t)
		if *outdir == "" {
			return nil
		}
		return t.SaveCSV(filepath.Join(*outdir, name+".csv"))
	}

	h := experiments.NewHarness()
	h.Parallel = *parallel
	if *coldStart {
		h.Node.NoIncremental = true
	}
	if *eventsPath != "" {
		// A merged stream from concurrent cells would interleave
		// nondeterministically, so recording forces the serial sweep.
		if *parallel != 1 {
			requested := "the default (one cell per CPU)"
			if *parallel != 0 {
				requested = fmt.Sprintf("-parallel %d", *parallel)
			}
			fmt.Fprintf(os.Stderr,
				"kelpbench: -events forces -parallel 1 for a deterministic stream, overriding %s\n",
				requested)
		}
		h.Parallel = 1
		h.Events = events.MustNew(1 << 20)
	}
	if *quick {
		h.Warmup = 1 * sim.Second
		h.Measure = 1 * sim.Second
	}
	spec, err := faults.ParseSpec(*faultsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kelpbench:", err)
		os.Exit(2)
	}
	h.Faults = spec
	cspec, err := clusterfaults.ParseSpec(*cfaultsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kelpbench:", err)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ran := 0

	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		ran++
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "kelpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		return emit("table1", experiments.Table1Table())
	})
	run("fig2", func() error {
		rows, above70, err := experiments.Figure2(fleet.DefaultCensusConfig())
		if err != nil {
			return err
		}
		return emit("fig2", experiments.Figure2Table(rows, above70))
	})
	run("fig3", func() error {
		r, err := experiments.Figure3(trace.DefaultConfig())
		if err != nil {
			return err
		}
		if err := emit("fig3", experiments.Figure3Table(r)); err != nil {
			return err
		}
		fmt.Println("standalone:", r.Standalone.Render(0.2e-3))
		fmt.Println("colocated :", r.Colocated.Render(0.2e-3))
		fmt.Println()
		return nil
	})
	run("fig5", func() error {
		rows, err := experiments.Figure5(h)
		if err != nil {
			return err
		}
		return emit("fig5", experiments.SensitivityTable("Figure 5: workload sensitivity to shared resource interference", rows))
	})
	run("fig7", func() error {
		rows, err := experiments.Figure7(h)
		if err != nil {
			return err
		}
		return emit("fig7", experiments.BackpressureTable(rows))
	})
	run("fig9", func() error {
		rows, err := experiments.Figure9(h)
		if err != nil {
			return err
		}
		experiments.NormalizeCPU(rows, 1)
		if err := emit("fig9", experiments.CaseStudyTable(
			"Figures 9 & 11: CNN1 + Stitch sweep", "Stitch instances", rows)); err != nil {
			return err
		}
		fmt.Println(experiments.CaseStudyChart("Fig. 9a: CNN1 perf vs Stitch instances", rows))
		return nil
	})
	run("fig10", func() error {
		rows, err := experiments.Figure10(h)
		if err != nil {
			return err
		}
		experiments.NormalizeCPU(rows, 2)
		if err := emit("fig10", experiments.CaseStudyTable(
			"Figures 10 & 12: RNN1 + CPUML sweep", "CPUML threads", rows)); err != nil {
			return err
		}
		fmt.Println(experiments.CaseStudyChart("Fig. 10a: RNN1 QPS vs CPUML threads", rows))
		return nil
	})
	var overall []experiments.OverallRow
	run("fig13", func() error {
		rows, err := experiments.Figure13(h)
		if err != nil {
			return err
		}
		overall = rows
		return emit("fig13", experiments.OverallTable(rows))
	})
	run("fig14", func() error {
		if overall == nil {
			rows, err := experiments.Figure13(h)
			if err != nil {
				return err
			}
			overall = rows
		}
		return emit("fig14", experiments.EfficiencyTable(experiments.Figure14(overall)))
	})
	run("fig15", func() error {
		rows, err := experiments.Figure15(h)
		if err != nil {
			return err
		}
		return emit("fig15", experiments.SensitivityTable("Figure 15: sensitivity including remote memory interference", rows))
	})
	run("knee", func() error {
		rows, err := experiments.KneeSweep(h, nil)
		if err != nil {
			return err
		}
		if err := emit("knee", experiments.KneeTable(rows)); err != nil {
			return err
		}
		fmt.Println(experiments.KneeChart(rows))
		return nil
	})
	run("ratio", func() error {
		rows, err := experiments.RatioSweep(h)
		if err != nil {
			return err
		}
		return emit("ratio", experiments.RatioTable(rows))
	})
	run("futurework", func() error {
		rows, err := experiments.FutureWork(h)
		if err != nil {
			return err
		}
		return emit("futurework", experiments.FutureWorkTable(rows))
	})
	run("fig16", func() error {
		rows, err := experiments.Figure16(h)
		if err != nil {
			return err
		}
		return emit("fig16", experiments.RemoteSweepTable(rows))
	})
	// The resilience study is opt-in (not part of 'all'): it injects
	// faults by design, so the default sweep stays byte-identical to a
	// build without the injector.
	if want["resilience"] {
		ran++
		rows, err := experiments.Resilience(h, *faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kelpbench: resilience: %v\n", err)
			os.Exit(1)
		}
		if err := emit("resilience", experiments.ResilienceTable(rows)); err != nil {
			fmt.Fprintf(os.Stderr, "kelpbench: resilience: %v\n", err)
			os.Exit(1)
		}
	}

	// The cluster fault-tolerance study is opt-in for the same reason:
	// the default sweep never builds a cluster injector.
	if want["clusterfaults"] {
		ran++
		var custom *clusterfaults.Spec
		if strings.TrimSpace(*cfaultsFlag) != "" {
			custom = &cspec
		}
		rows, err := experiments.ClusterFaults(h, *faultSeed, custom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kelpbench: clusterfaults: %v\n", err)
			os.Exit(1)
		}
		if err := emit("clusterfaults", experiments.ClusterFaultsTable(rows)); err != nil {
			fmt.Fprintf(os.Stderr, "kelpbench: clusterfaults: %v\n", err)
			os.Exit(1)
		}
	}

	// The fleet study is opt-in too: it composes thousands of machines and
	// a cluster-level fault replay on top of the node sweep, which is a
	// different (and heavier) question than the per-node tables.
	if want["fleet"] {
		ran++
		var custom *clusterfaults.Spec
		if strings.TrimSpace(*cfaultsFlag) != "" {
			custom = &cspec
		}
		rows, err := experiments.FleetStudy(h, *machines, custom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kelpbench: fleet: %v\n", err)
			os.Exit(1)
		}
		if err := emit("fleet", experiments.FleetTable(rows, *machines)); err != nil {
			fmt.Fprintf(os.Stderr, "kelpbench: fleet: %v\n", err)
			os.Exit(1)
		}
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "kelpbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kelpbench:", err)
			os.Exit(1)
		}
		evs := h.Events.Events()
		if err := events.WriteJSONL(f, evs); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "kelpbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "kelpbench:", err)
			os.Exit(1)
		}
		fmt.Printf("events: %d written to %s (%d dropped by the ring)\n",
			len(evs), *eventsPath, h.Events.Dropped())
	}
}
