package experiments

import (
	"fmt"

	"kelp/internal/cgroup"
	"kelp/internal/node"
	"kelp/internal/pool"
	"kelp/internal/workload"
)

// BackpressureRow is one cell of the shared-memory-backpressure study
// (Fig. 7): an ML workload isolated by NUMA subdomains from a DRAM
// antagonist of the given level, with a fixed fraction of the antagonist's
// L2 prefetchers disabled. No runtime is active — the sweep is static, as
// in the paper.
type BackpressureRow struct {
	ML    MLKind
	Level workload.Level
	// PrefetchersOffPct is the swept fraction of disabled prefetchers.
	PrefetchersOffPct int
	// Perf is ML performance normalized to standalone.
	Perf float64
	// TailNorm is normalized 95%-ile latency (RNN1 only).
	TailNorm float64
	// Saturation is the measured distress duty cycle (the right axis of
	// Fig. 7).
	Saturation float64
}

// Figure7 sweeps prefetcher toggling for RNN1, CNN1 and CNN2 against the
// three antagonist levels. The paper's headline points: with no prefetchers
// disabled, RNN1 loses 14% QPS (+16% tail), CNN1 loses 50%, CNN2 10%;
// toggling prefetchers restores most of the loss; light antagonists can
// leave the ML task slightly faster than standalone thanks to SNC's lower
// local latency.
func Figure7(h *Harness) ([]BackpressureRow, error) {
	type cell struct {
		ml     MLKind
		lvl    workload.Level
		offPct int
	}
	var cells []cell
	for _, ml := range []MLKind{RNN1, CNN1, CNN2} {
		for _, lvl := range workload.Levels() {
			for _, offPct := range []int{0, 25, 50, 75, 100} {
				cells = append(cells, cell{ml, lvl, offPct})
			}
		}
	}
	return pool.Collect(h.workers(), len(cells), func(i int) (BackpressureRow, error) {
		c := cells[i]
		// The singleflight cache makes concurrent baseline requests for the
		// same workload collapse into one run.
		base, err := h.Standalone(c.ml)
		if err != nil {
			return BackpressureRow{}, err
		}
		row, err := backpressureCell(h, c.ml, c.lvl, c.offPct, base)
		if err != nil {
			return BackpressureRow{}, err
		}
		return *row, nil
	})
}

// backpressureCell runs one (workload, level, prefetcher) configuration.
func backpressureCell(h *Harness, ml MLKind, lvl workload.Level, offPct int, base *Result) (*BackpressureRow, error) {
	cfg := coherenceFor(h.Node, ml)
	cfg.Memory.SNCEnabled = true
	n, err := node.New(cfg)
	if err != nil {
		return nil, err
	}
	cg := n.Cgroups()
	if _, err := cg.Create("ml", cgroup.High); err != nil {
		return nil, err
	}
	hi := n.Processor().SubdomainCores(0, 0)
	if err := cg.SetCPUs("ml", hi.Take(ml.MLCores())); err != nil {
		return nil, err
	}
	if err := cg.SetMemPolicy("ml", cgroup.MemPolicy{Socket: 0, Subdomain: 0}); err != nil {
		return nil, err
	}
	if err := cg.SetLLCWays("ml", (uint64(1)<<uint(h.Opts.CATWays))-1); err != nil {
		return nil, err
	}
	if _, err := NewMLTask(n, ml, "ml"); err != nil {
		return nil, err
	}

	if _, err := cg.Create("low", cgroup.Low); err != nil {
		return nil, err
	}
	low := n.Processor().SubdomainCores(0, 1)
	if err := cg.SetCPUs("low", low); err != nil {
		return nil, err
	}
	if err := cg.SetMemPolicy("low", cgroup.MemPolicy{Socket: 0, Subdomain: 1}); err != nil {
		return nil, err
	}
	if err := cg.SetLLCWays("low", cfg.Memory.AllWays()&^((uint64(1)<<uint(h.Opts.CATWays))-1)); err != nil {
		return nil, err
	}
	agg, err := workload.NewDRAMAggressor(lvl)
	if err != nil {
		return nil, err
	}
	if err := n.AddTask(agg, "low"); err != nil {
		return nil, err
	}
	// The static sweep: disable offPct of the low group's prefetchers.
	on := low.Len() - low.Len()*offPct/100
	if _, err := cg.SetPrefetchCount("low", on); err != nil {
		return nil, err
	}

	n.Run(h.Warmup)
	n.StartMeasurement()
	n.Monitor().Window() // reset the window to the measured interval
	n.Run(h.Measure)

	mlTask, err := n.Task(mlTaskName(ml))
	if err != nil {
		return nil, err
	}
	sample := n.Monitor().Window()
	row := &BackpressureRow{
		ML:                ml,
		Level:             lvl,
		PrefetchersOffPct: offPct,
		Saturation:        sample.SocketSaturation[0],
	}
	if base.MLThroughput > 0 {
		row.Perf = mlTask.Throughput(n.Now()) / base.MLThroughput
	}
	if inf, ok := mlTask.(*workload.Inference); ok && base.MLTail > 0 {
		row.TailNorm = inf.TailLatency(0.95) / base.MLTail
	}
	return row, nil
}

// mlTaskName returns the registered task name for an ML kind.
func mlTaskName(m MLKind) string { return m.String() }

// BackpressureTable renders the sweep.
func BackpressureTable(rows []BackpressureRow) *Table {
	t := NewTable("Figure 7: shared memory backpressure and prefetcher toggling",
		"ML", "Aggressor", "Prefetchers off", "Normalized perf", "Normalized tail", "Saturation")
	for _, r := range rows {
		t.AddRow(r.ML, "Aggress-"+r.Level.String(), fmt.Sprintf("%d%%", r.PrefetchersOffPct),
			r.Perf, r.TailNorm, r.Saturation)
	}
	return t
}
