package experiments

import (
	"kelp/internal/metrics"
	"kelp/internal/policy"
	"kelp/internal/pool"
	"kelp/internal/workload"
)

// SensitivityRow is one cell of the interference sensitivity studies
// (Fig. 5 and Fig. 15): one ML workload against one antagonist, unmanaged
// (Baseline), performance normalized to standalone.
type SensitivityRow struct {
	ML        MLKind
	Aggressor CPUKind
	Perf      float64
	TailNorm  float64
}

// Figure5 runs the shared-resource sensitivity study: each ML workload
// against the LLC and DRAM antagonists under Baseline. The paper reports
// ~14% average degradation from LLC contention and ~40% from DRAM BW
// contention.
func Figure5(h *Harness) ([]SensitivityRow, error) {
	return sensitivity(h, []CPUSpec{
		{Kind: LLCAggressor},
		{Kind: DRAMAggressor, Level: workload.LevelHigh},
	})
}

// Figure15 extends the study with the Remote DRAM antagonist (half of its
// data on the remote socket), exposing the interconnect/coherence penalty.
// The paper reports an additional 16% (CNN1) and 27% (CNN2) loss beyond
// local DRAM, concentrated on the Cloud TPU platform.
func Figure15(h *Harness) ([]SensitivityRow, error) {
	return sensitivity(h, []CPUSpec{
		{Kind: LLCAggressor},
		{Kind: DRAMAggressor, Level: workload.LevelHigh},
		{Kind: RemoteDRAM, Level: workload.LevelHigh, RemoteFrac: 0.5},
	})
}

func sensitivity(h *Harness, aggressors []CPUSpec) ([]SensitivityRow, error) {
	type cell struct {
		ml  MLKind
		agg CPUSpec
	}
	var cells []cell
	for _, ml := range MLKinds() {
		for _, agg := range aggressors {
			cells = append(cells, cell{ml, agg})
		}
	}
	return pool.Collect(h.workers(), len(cells), func(i int) (SensitivityRow, error) {
		c := cells[i]
		r, err := h.RunNormalized(c.ml, []CPUSpec{c.agg}, policy.Baseline)
		if err != nil {
			return SensitivityRow{}, err
		}
		return SensitivityRow{
			ML:        c.ml,
			Aggressor: c.agg.Kind,
			Perf:      r.MLPerf,
			TailNorm:  r.MLTailNorm,
		}, nil
	})
}

// SensitivityAverages returns mean normalized performance per antagonist
// across ML workloads — the "Average" cluster of Figs. 5 and 15.
func SensitivityAverages(rows []SensitivityRow) map[CPUKind]float64 {
	byKind := make(map[CPUKind][]float64)
	for _, r := range rows {
		byKind[r.Aggressor] = append(byKind[r.Aggressor], r.Perf)
	}
	out := make(map[CPUKind]float64, len(byKind))
	for k, v := range byKind {
		out[k] = metrics.Mean(v)
	}
	return out
}

// SensitivityTable renders the study.
func SensitivityTable(title string, rows []SensitivityRow) *Table {
	t := NewTable(title, "ML workload", "Aggressor", "Normalized perf", "Normalized tail")
	for _, r := range rows {
		t.AddRow(r.ML, r.Aggressor, r.Perf, r.TailNorm)
	}
	avgs := SensitivityAverages(rows)
	for _, k := range []CPUKind{LLCAggressor, DRAMAggressor, RemoteDRAM} {
		if avg, ok := avgs[k]; ok {
			t.AddRow("Average", k, avg, "")
		}
	}
	return t
}
