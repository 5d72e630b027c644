package experiments

import (
	"fmt"

	"kelp/internal/policy"
	"kelp/internal/pool"
	"kelp/internal/workload"
)

// RemoteSweepRow is one cell of the Cloud TPU remote-memory sweep
// (Fig. 16): the ML slowdown when an antagonist's data and threads are
// split between the ML task's socket and the remote socket.
type RemoteSweepRow struct {
	ML MLKind
	// DataLocalPct is the percentage of the antagonist's data resident on
	// the ML task's socket.
	DataLocalPct int
	// ThreadsLocalPct is the percentage of antagonist threads running on
	// the ML task's socket.
	ThreadsLocalPct int
	// Slowdown is standalone/achieved ML performance (the figure's y-axis;
	// 1.0 = no loss, higher is worse).
	Slowdown float64
}

// Figure16 sweeps the remote-traffic configuration for CNN1 and CNN2.
// Cross-socket traffic — in either direction — costs more than local
// contention on the Cloud TPU platform, so mixed placements are worst.
func Figure16(h *Harness) ([]RemoteSweepRow, error) {
	type cell struct {
		ml              MLKind
		dataL, threadsL int
	}
	var cells []cell
	grid := []int{0, 25, 50, 100}
	for _, ml := range []MLKind{CNN1, CNN2} {
		for _, dataLocal := range grid {
			for _, threadsLocal := range grid {
				cells = append(cells, cell{ml, dataLocal, threadsLocal})
			}
		}
	}
	return pool.Collect(h.workers(), len(cells), func(i int) (RemoteSweepRow, error) {
		c := cells[i]
		r, err := remoteCell(h, c.ml, c.dataL, c.threadsL)
		if err != nil {
			return RemoteSweepRow{}, err
		}
		return *r, nil
	})
}

// remoteCell runs one (data%, threads%) configuration: the antagonist is
// split into a local-socket task and a remote-socket task, thread counts
// proportional to threadsLocal, each accessing data that is dataLocal
// resident on the ML socket.
func remoteCell(h *Harness, ml MLKind, dataLocalPct, threadsLocalPct int) (*RemoteSweepRow, error) {
	base, err := workload.NewDRAMAggressor(workload.LevelHigh)
	if err != nil {
		return nil, err
	}
	totalThreads := base.Config().Threads
	localThreads := totalThreads * threadsLocalPct / 100
	remoteThreads := totalThreads - localThreads

	var specs []CPUSpec
	if localThreads > 0 {
		// Local threads: a fraction (100-dataLocal)% of their accesses
		// target the remote socket.
		specs = append(specs, CPUSpec{
			Kind:       RemoteDRAM,
			Level:      workload.LevelHigh,
			RemoteFrac: float64(100-dataLocalPct) / 100,
			Threads:    localThreads,
		})
	}
	if remoteThreads > 0 {
		// Remote-socket threads: their data layout is the same, but seen
		// from the other socket, so the dataLocal fraction is what crosses.
		specs = append(specs, CPUSpec{
			Kind:         RemoteDRAM,
			Level:        workload.LevelHigh,
			RemoteFrac:   float64(100-dataLocalPct) / 100,
			Threads:      remoteThreads,
			RemoteSocket: true,
		})
	}
	r, err := h.RunNormalized(ml, specs, policy.Baseline)
	if err != nil {
		return nil, err
	}
	row := &RemoteSweepRow{ML: ml, DataLocalPct: dataLocalPct, ThreadsLocalPct: threadsLocalPct}
	if r.MLPerf > 0 {
		row.Slowdown = 1 / r.MLPerf
	}
	return row, nil
}

// RemoteSweepTable renders Fig. 16.
func RemoteSweepTable(rows []RemoteSweepRow) *Table {
	t := NewTable("Figure 16: Cloud TPU remote memory sweep",
		"ML", "Data local", "Threads local", "Slowdown")
	for _, r := range rows {
		t.AddRow(r.ML, fmt.Sprintf("%d%%", r.DataLocalPct),
			fmt.Sprintf("%d%%", r.ThreadsLocalPct), r.Slowdown)
	}
	return t
}
