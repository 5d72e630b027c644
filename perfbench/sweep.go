package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"kelp/internal/experiments"
	"kelp/internal/fleet"
	ktrace "kelp/internal/trace"
)

// sweepState carries results one experiment hands to a later one, as
// kelpbench does (Fig. 14 re-reads Fig. 13's rows).
type sweepState struct {
	overall []experiments.OverallRow
}

// sweepStep is one experiment of `kelpbench -exp all`: it makes the same
// experiments calls and writes exactly the bytes kelpbench prints for it.
type sweepStep struct {
	name string
	run  func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error
}

// sweepSteps lists the evaluation in kelpbench's order.
var sweepSteps = []sweepStep{
	{"table1", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		fmt.Fprintln(w, experiments.Table1Table())
		return nil
	}},
	{"fig2", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, above70, err := experiments.Figure2(fleet.DefaultCensusConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.Figure2Table(rows, above70))
		return nil
	}},
	{"fig3", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		r, err := experiments.Figure3(ktrace.DefaultConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.Figure3Table(r))
		fmt.Fprintln(w, "standalone:", r.Standalone.Render(0.2e-3))
		fmt.Fprintln(w, "colocated :", r.Colocated.Render(0.2e-3))
		fmt.Fprintln(w)
		return nil
	}},
	{"fig5", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.Figure5(h)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.SensitivityTable("Figure 5: workload sensitivity to shared resource interference", rows))
		return nil
	}},
	{"fig7", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.Figure7(h)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.BackpressureTable(rows))
		return nil
	}},
	{"fig9", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.Figure9(h)
		if err != nil {
			return err
		}
		experiments.NormalizeCPU(rows, 1)
		fmt.Fprintln(w, experiments.CaseStudyTable("Figures 9 & 11: CNN1 + Stitch sweep", "Stitch instances", rows))
		fmt.Fprintln(w, experiments.CaseStudyChart("Fig. 9a: CNN1 perf vs Stitch instances", rows))
		return nil
	}},
	{"fig10", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.Figure10(h)
		if err != nil {
			return err
		}
		experiments.NormalizeCPU(rows, 2)
		fmt.Fprintln(w, experiments.CaseStudyTable("Figures 10 & 12: RNN1 + CPUML sweep", "CPUML threads", rows))
		fmt.Fprintln(w, experiments.CaseStudyChart("Fig. 10a: RNN1 QPS vs CPUML threads", rows))
		return nil
	}},
	{"fig13", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.Figure13(h)
		if err != nil {
			return err
		}
		st.overall = rows
		fmt.Fprintln(w, experiments.OverallTable(rows))
		return nil
	}},
	{"fig14", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		fmt.Fprintln(w, experiments.EfficiencyTable(experiments.Figure14(st.overall)))
		return nil
	}},
	{"fig15", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.Figure15(h)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.SensitivityTable("Figure 15: sensitivity including remote memory interference", rows))
		return nil
	}},
	{"knee", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.KneeSweep(h, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.KneeTable(rows))
		fmt.Fprintln(w, experiments.KneeChart(rows))
		return nil
	}},
	{"ratio", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.RatioSweep(h)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RatioTable(rows))
		return nil
	}},
	{"futurework", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.FutureWork(h)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FutureWorkTable(rows))
		return nil
	}},
	{"fig16", func(h *experiments.Harness, w *bytes.Buffer, st *sweepState) error {
		rows, err := experiments.Figure16(h)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RemoteSweepTable(rows))
		return nil
	}},
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runSweep times the paper's full evaluation, pass after pass. The sweep
// has fixed inputs, so the seed is unused.
func runSweep(o opts, tr *tracer) (*report, error) {
	rep := newReport()
	// stepSum accumulates each experiment's time over traced passes, for
	// the per-layer means.
	stepSum := make([]float64, len(sweepSteps))
	var h *experiments.Harness
	passes, err := runPasses(o, tr, func(ptr *tracer, st *passStat) error {
		h, st.setup = freshHarness()
		var out bytes.Buffer
		sweep := &sweepState{}
		passID := ptr.id()
		start := time.Now()
		for i, step := range sweepSteps {
			ts := time.Now()
			err := step.run(h, &out, sweep)
			te := time.Now()
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("%s: %v", step.name, err)
				continue
			}
			st.ops++
			st.lat = append(st.lat, te.Sub(ts).Seconds())
			ptr.record(0, passID, 0, "experiments."+step.name, ts, te)
			if ptr != nil {
				stepSum[i] += te.Sub(ts).Seconds()
			}
		}
		end := time.Now()
		ptr.record(passID, 0, 0, "sweep.pass", start, end)
		st.wall = end.Sub(start).Seconds()
		if got := digest(out.Bytes()); got != sweepDigest {
			rep.fail("kelpbench -exp all output digest %s, want %s", got, sweepDigest)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.note("sweep: %d passes, each checked against the digest of kelpbench -exp all", len(passes))
	// The last pass's harness and the warm-start cache it filled are the
	// sweep's live state.
	heap := liveHeapMB()
	runtime.KeepAlive(h)

	fillMetrics(rep, passes, heap)
	if tr == nil {
		return rep, nil
	}

	traced := tracedWalls(passes)
	var attributed float64
	for i, step := range sweepSteps {
		v := stepSum[i] / float64(len(traced))
		rep.layers["experiments."+step.name+"_s"] = v
		attributed += v
	}
	wall := mean(traced)
	rep.layers["experiments.unattributed_s"] = wall - attributed
	checkAttribution(rep, "sweep", wall, attributed)
	return rep, probeCell(rep)
}
