package experiments

import (
	"fmt"

	"kelp/internal/metrics"
	"kelp/internal/policy"
	"kelp/internal/pool"
)

// OverallRow is one cell of the overall evaluation (Fig. 13): one ML
// workload x one batch CPU workload x one policy.
type OverallRow struct {
	ML     MLKind
	CPU    CPUKind
	Policy policy.Kind
	// MLSlowdown is standalone/achieved ML performance (1.0 = no loss; the
	// paper's left axis).
	MLSlowdown float64
	// CPUSlowdown is Baseline/achieved CPU throughput for the same mix
	// (the right axis; harmonic-mean averaged).
	CPUSlowdown float64
	// Raw values for the efficiency metric.
	MLPerf   float64
	CPUUnits float64
}

// Figure13 runs all twelve workload mixes under all four policies.
func Figure13(h *Harness) ([]OverallRow, error) {
	return overallGrid(h, policy.Kinds())
}

// overallGrid fans the (ML x batch CPU x policy) grid out across the
// worker pool and then normalizes each mix's CPU throughput against its
// Baseline cell. Rows come back in the serial iteration order.
func overallGrid(h *Harness, kinds []policy.Kind) ([]OverallRow, error) {
	type cell struct {
		ml  MLKind
		cpu CPUKind
		mix []CPUSpec
		k   policy.Kind
	}
	var cells []cell
	for _, ml := range MLKinds() {
		for _, cpuKind := range BatchKinds() {
			mix, err := MixFor(cpuKind)
			if err != nil {
				return nil, err
			}
			for _, k := range kinds {
				cells = append(cells, cell{ml, cpuKind, mix, k})
			}
		}
	}
	rows, err := pool.Collect(h.workers(), len(cells), func(i int) (OverallRow, error) {
		c := cells[i]
		r, err := h.RunNormalized(c.ml, c.mix, c.k)
		if err != nil {
			return OverallRow{}, err
		}
		row := OverallRow{
			ML: c.ml, CPU: c.cpu, Policy: c.k,
			MLPerf:   r.MLPerf,
			CPUUnits: r.CPUUnits,
		}
		if r.MLPerf > 0 {
			row.MLSlowdown = 1 / r.MLPerf
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	// Each mix occupies len(kinds) consecutive rows; its Baseline cell's
	// CPU throughput normalizes the others.
	for g := 0; g+len(kinds) <= len(rows); g += len(kinds) {
		var blCPU float64
		for _, r := range rows[g : g+len(kinds)] {
			if r.Policy == policy.Baseline {
				blCPU = r.CPUUnits
			}
		}
		for i := g; i < g+len(kinds); i++ {
			if rows[i].CPUUnits > 0 && blCPU > 0 {
				rows[i].CPUSlowdown = blCPU / rows[i].CPUUnits
			}
		}
	}
	return rows, nil
}

// OverallSummary aggregates Fig. 13 the way the paper does: arithmetic mean
// of ML slowdowns, harmonic mean of CPU throughput ratios.
type OverallSummary struct {
	Policy policy.Kind
	// MeanMLSlowdown is the arithmetic mean slowdown (1.0 = standalone).
	MeanMLSlowdown float64
	// MeanCPUThroughput is the harmonic mean of per-mix CPU throughput
	// normalized to Baseline (1.0 = Baseline).
	MeanCPUThroughput float64
}

// Summarize aggregates rows per policy.
func Summarize(rows []OverallRow) []OverallSummary {
	out := make([]OverallSummary, 0, 4)
	for _, k := range policy.Kinds() {
		var slowdowns, cpuRatios []float64
		for _, r := range rows {
			if r.Policy != k {
				continue
			}
			slowdowns = append(slowdowns, r.MLSlowdown)
			if r.CPUSlowdown > 0 {
				cpuRatios = append(cpuRatios, 1/r.CPUSlowdown)
			}
		}
		out = append(out, OverallSummary{
			Policy:            k,
			MeanMLSlowdown:    metrics.Mean(slowdowns),
			MeanCPUThroughput: metrics.HarmonicMean(cpuRatios),
		})
	}
	return out
}

// EfficiencyRow is one cell of Fig. 14: the tradeoff metric for one mix and
// managed policy — ML performance gain over Baseline per unit of CPU
// throughput loss versus Baseline (higher is better).
type EfficiencyRow struct {
	ML         MLKind
	CPU        CPUKind
	Policy     policy.Kind
	Efficiency float64
}

// minCPULoss floors the CPU-throughput-loss denominator: when a managed
// policy loses (or even gains) almost no CPU throughput versus Baseline,
// the raw ratio diverges; the paper's figure caps such bars similarly.
const minCPULoss = 0.05

// Figure14 computes the efficiency metric from Fig. 13's rows.
func Figure14(rows []OverallRow) []EfficiencyRow {
	// Index Baseline results per mix.
	type key struct {
		ml  MLKind
		cpu CPUKind
	}
	base := make(map[key]OverallRow)
	for _, r := range rows {
		if r.Policy == policy.Baseline {
			base[key{r.ML, r.CPU}] = r
		}
	}
	var out []EfficiencyRow
	for _, r := range rows {
		if r.Policy == policy.Baseline {
			continue
		}
		b, ok := base[key{r.ML, r.CPU}]
		if !ok || b.MLPerf <= 0 || b.CPUUnits <= 0 {
			continue
		}
		gain := r.MLPerf - b.MLPerf
		loss := (b.CPUUnits - r.CPUUnits) / b.CPUUnits
		if loss < minCPULoss {
			loss = minCPULoss
		}
		out = append(out, EfficiencyRow{
			ML: r.ML, CPU: r.CPU, Policy: r.Policy,
			Efficiency: gain / loss,
		})
	}
	return out
}

// EfficiencyAverages returns the per-policy mean efficiency (the "Average"
// cluster of Fig. 14).
func EfficiencyAverages(rows []EfficiencyRow) map[policy.Kind]float64 {
	byPolicy := make(map[policy.Kind][]float64)
	for _, r := range rows {
		byPolicy[r.Policy] = append(byPolicy[r.Policy], r.Efficiency)
	}
	out := make(map[policy.Kind]float64, len(byPolicy))
	for k, v := range byPolicy {
		out[k] = metrics.Mean(v)
	}
	return out
}

// OverallTable renders Fig. 13.
func OverallTable(rows []OverallRow) *Table {
	t := NewTable("Figure 13: ML and CPU task performance across all mixes",
		"Mix", "Policy", "ML slowdown", "CPU slowdown")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%s+%s", r.ML, r.CPU), r.Policy, r.MLSlowdown, r.CPUSlowdown)
	}
	for _, s := range Summarize(rows) {
		t.AddRow("Average", s.Policy, s.MeanMLSlowdown, inverseSlowdown(s.MeanCPUThroughput))
	}
	return t
}

// EfficiencyTable renders Fig. 14.
func EfficiencyTable(rows []EfficiencyRow) *Table {
	t := NewTable("Figure 14: ML gain per unit CPU loss (efficiency)",
		"Mix", "Policy", "Efficiency")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%s+%s", r.ML, r.CPU), r.Policy, r.Efficiency)
	}
	avgs := EfficiencyAverages(rows)
	for _, k := range []policy.Kind{policy.CoreThrottle, policy.KelpSubdomain, policy.Kelp} {
		if v, ok := avgs[k]; ok {
			t.AddRow("Average", k, v)
		}
	}
	return t
}

// inverseSlowdown renders a mean throughput ratio as a slowdown. A zero
// ratio means no surviving CPU throughput — an unbounded slowdown — so it
// renders as "n/a" rather than the "no slowdown" a literal 1/0->1 fallback
// would print.
func inverseSlowdown(v float64) interface{} {
	if v == 0 {
		return "n/a"
	}
	return 1 / v
}
