package experiments

import (
	"fmt"

	"kelp/internal/policy"
)

// CaseStudyRow is one cell of a case-study sweep (Figs. 9 and 10): one
// workload mix size under one policy.
type CaseStudyRow struct {
	ML MLKind
	// Load is the sweep position: Stitch instance count (Fig. 9) or CPUML
	// thread count (Fig. 10).
	Load   int
	Policy policy.Kind
	// MLPerf is ML performance normalized to standalone.
	MLPerf float64
	// MLTail is RNN1's normalized 95%-ile latency (Fig. 10b).
	MLTail float64
	// CPUUnits is raw low-priority throughput, normalized by the caller
	// against the sweep's reference point.
	CPUUnits float64
	// Actuators captured at the end of the run (Figs. 11, 12):
	// CT: ThrottleCores; KP-SD: Prefetchers; KP: ThrottleCores+Backfill.
	ThrottleCores int
	Prefetchers   int
	BackfillCores int
}

// Figure9 sweeps CNN1 + Stitch across 1..6 instances under all four
// policies (the paper's first case study: a highly BW-sensitive ML task
// against an aggressive antagonist).
func Figure9(h *Harness) ([]CaseStudyRow, error) {
	return caseStudyGrid(h, CNN1, []int{1, 2, 3, 4, 5, 6}, func(n int) []CPUSpec {
		return StitchSweep(n)
	})
}

// caseStudyGrid fans one case-study sweep (load x policy) across the
// worker pool, rows in serial iteration order.
func caseStudyGrid(h *Harness, ml MLKind, loads []int, mixFor func(load int) []CPUSpec) ([]CaseStudyRow, error) {
	type cell struct {
		load int
		k    policy.Kind
	}
	var cells []cell
	for _, load := range loads {
		for _, k := range policy.Kinds() {
			cells = append(cells, cell{load, k})
		}
	}
	return Collect(h.workers(), len(cells), func(i int) (CaseStudyRow, error) {
		c := cells[i]
		r, err := h.RunNormalized(ml, mixFor(c.load), c.k)
		if err != nil {
			return CaseStudyRow{}, err
		}
		return caseRow(ml, c.load, c.k, r), nil
	})
}

// Figure10 sweeps RNN1 + CPUML across 2..16 threads under all four
// policies (the second case study: a latency-sensitive server against a
// milder antagonist).
func Figure10(h *Harness) ([]CaseStudyRow, error) {
	return caseStudyGrid(h, RNN1, []int{2, 4, 6, 8, 10, 12, 14, 16}, func(t int) []CPUSpec {
		return CPUMLSweep(t)
	})
}

func caseRow(ml MLKind, load int, k policy.Kind, r *NormResult) CaseStudyRow {
	row := CaseStudyRow{
		ML:       ml,
		Load:     load,
		Policy:   k,
		MLPerf:   r.MLPerf,
		MLTail:   r.MLTailNorm,
		CPUUnits: r.CPUUnits,
	}
	c := r.Raw.Controls
	if c.Throttler {
		row.ThrottleCores = c.ThrottleCores
	}
	if c.Runtime {
		row.Prefetchers = c.Prefetchers
		row.ThrottleCores = c.LowCores
		row.BackfillCores = c.BackfillCores
	}
	return row
}

// NormalizeCPU rescales CPUUnits in place against the Baseline value at the
// reference load (the paper normalizes Stitch throughput to Baseline with
// one instance, CPUML to Baseline with two threads).
func NormalizeCPU(rows []CaseStudyRow, refLoad int) {
	var ref float64
	for _, r := range rows {
		if r.Load == refLoad && r.Policy == policy.Baseline {
			ref = r.CPUUnits
			break
		}
	}
	if ref <= 0 {
		return
	}
	for i := range rows {
		rows[i].CPUUnits /= ref
	}
}

// CaseStudyTable renders a sweep.
func CaseStudyTable(title, loadLabel string, rows []CaseStudyRow) *Table {
	t := NewTable(title, loadLabel, "Policy", "ML perf", "ML tail", "CPU throughput",
		"CT/KP cores", "KP-SD prefetchers", "KP backfill")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Load), r.Policy, r.MLPerf, r.MLTail, r.CPUUnits,
			r.ThrottleCores, r.Prefetchers, r.BackfillCores)
	}
	return t
}
