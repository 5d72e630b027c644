package experiments

import (
	"fmt"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
	"kelp/internal/node"
	"kelp/internal/pool"
	"kelp/internal/workload"
)

// The paper describes two experiments whose figures it omits for brevity.
// Both are reproduced here so the claims they support are checkable:
//
//  1. §III-A / §V-A: "we sweep the query throughput and analyze the tail
//     latency. The target throughput we use in the paper is at the knee of
//     the tail latency curve. The sweep plot is omitted for brevity."
//  2. §III-B: "We also performed a sweep analysis of the ratio of
//     computation and communication between accelerator and host CPU for
//     CNN1 and CNN2. The same level of sensitivity is observed across the
//     spectrum for both workloads. Figure for this analysis is omitted."

// KneeRow is one offered-load point of the RNN1 throughput/latency sweep.
type KneeRow struct {
	// OfferedQPS is the open-loop arrival rate.
	OfferedQPS float64
	// AchievedQPS is the completed rate.
	AchievedQPS float64
	// TailLatency is the 95%-ile request latency, seconds.
	TailLatency float64
}

// KneeSweep runs RNN1 open-loop across offered loads and returns the
// throughput/latency curve. The knee — the last point before tail latency
// escalates — is where the paper pins its target rate.
func KneeSweep(h *Harness, loads []float64) ([]KneeRow, error) {
	if len(loads) == 0 {
		loads = []float64{100, 150, 200, 250, 300, 350, 400, 450}
	}
	return pool.Collect(h.workers(), len(loads), func(i int) (KneeRow, error) {
		row, err := kneeCell(h, loads[i])
		if err != nil {
			return KneeRow{}, err
		}
		return *row, nil
	})
}

func kneeCell(h *Harness, offered float64) (*KneeRow, error) {
	cfg := coherenceFor(h.Node, RNN1)
	n, err := node.New(cfg)
	if err != nil {
		return nil, err
	}
	cg := n.Cgroups()
	if _, err := cg.Create("ml", cgroup.High); err != nil {
		return nil, err
	}
	if err := cg.SetCPUs("ml", n.Processor().SocketCores(0).Take(RNN1.MLCores())); err != nil {
		return nil, err
	}
	dev, err := accel.NewDevice(accel.NewTPU())
	if err != nil {
		return nil, err
	}
	base, err := workload.NewRNN1(dev, nil)
	if err != nil {
		return nil, err
	}
	icfg := base.Config()
	icfg.ClosedLoop = false
	icfg.TargetQPS = offered
	server, err := workload.NewInference("RNN1-knee", dev, icfg, n.Engine().RNG().Stream("knee"))
	if err != nil {
		return nil, err
	}
	if err := n.AddTask(server, "ml"); err != nil {
		return nil, err
	}
	n.Run(h.Warmup)
	n.StartMeasurement()
	n.Run(h.Measure)
	return &KneeRow{
		OfferedQPS:  offered,
		AchievedQPS: server.Throughput(n.Now()),
		TailLatency: server.TailLatency(0.95),
	}, nil
}

// Knee returns the index of the knee point: the last load whose tail stays
// within kneeFactor of the lightest load's tail.
func Knee(rows []KneeRow, kneeFactor float64) int {
	if len(rows) == 0 {
		return -1
	}
	base := rows[0].TailLatency
	knee := 0
	for i, r := range rows {
		if r.TailLatency <= base*kneeFactor {
			knee = i
		}
	}
	return knee
}

// KneeTable renders the sweep.
func KneeTable(rows []KneeRow) *Table {
	t := NewTable("RNN1 throughput/latency sweep (paper's omitted knee plot)",
		"Offered QPS", "Achieved QPS", "p95 latency (ms)")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0f", r.OfferedQPS), r.AchievedQPS, r.TailLatency*1e3)
	}
	if k := Knee(rows, 2.0); k >= 0 {
		t.AddRow("knee", fmt.Sprintf("%.0f QPS", rows[k].OfferedQPS), "")
	}
	return t
}

// RatioRow is one point of the compute/communication ratio sweep: the same
// training workload with its host share scaled, under the DRAM antagonist.
type RatioRow struct {
	ML MLKind
	// HostShare is the fraction of a standalone step spent on the host.
	HostShare float64
	// Perf is DRAM-contended performance normalized to that variant's own
	// standalone run.
	Perf float64
}

// RatioSweep scales CNN1's and CNN2's host phases across a spectrum of
// host shares and measures DRAM sensitivity for each variant. The paper
// reports "the same level of sensitivity across the spectrum": sensitivity
// is a property of the host phase's memory behaviour, not its length,
// though workload-level impact scales with host share.
func RatioSweep(h *Harness) ([]RatioRow, error) {
	type cell struct {
		ml    MLKind
		scale float64
	}
	var cells []cell
	for _, ml := range []MLKind{CNN1, CNN2} {
		for _, scale := range []float64{0.5, 1.0, 2.0, 4.0} {
			cells = append(cells, cell{ml, scale})
		}
	}
	return pool.Collect(h.workers(), len(cells), func(i int) (RatioRow, error) {
		row, err := ratioCell(h, cells[i].ml, cells[i].scale)
		if err != nil {
			return RatioRow{}, err
		}
		return *row, nil
	})
}

// scaledTraining builds a CNN1/CNN2 variant with its CPU work scaled.
func scaledTraining(ml MLKind, scale float64) (*workload.Training, error) {
	var (
		t   *workload.Training
		err error
	)
	switch ml {
	case CNN1:
		t, err = workload.NewCNN1(ml.Platform())
	case CNN2:
		t, err = workload.NewCNN2(ml.Platform())
	default:
		return nil, fmt.Errorf("experiments: ratio sweep supports CNN1/CNN2, not %s", ml)
	}
	if err != nil {
		return nil, err
	}
	return workload.ScaleCPUWork(t, scale)
}

func ratioCell(h *Harness, ml MLKind, scale float64) (*RatioRow, error) {
	run := func(withAggressor bool) (float64, float64, error) {
		cfg := coherenceFor(h.Node, ml)
		n, err := node.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		cg := n.Cgroups()
		if _, err := cg.Create("ml", cgroup.High); err != nil {
			return 0, 0, err
		}
		if err := cg.SetCPUs("ml", n.Processor().SocketCores(0).Take(ml.MLCores())); err != nil {
			return 0, 0, err
		}
		task, err := scaledTraining(ml, scale)
		if err != nil {
			return 0, 0, err
		}
		if err := n.AddTask(task, "ml"); err != nil {
			return 0, 0, err
		}
		if withAggressor {
			if _, err := cg.Create("agg", cgroup.Low); err != nil {
				return 0, 0, err
			}
			agg, err := workload.NewDRAMAggressor(workload.LevelHigh)
			if err != nil {
				return 0, 0, err
			}
			cores := n.Processor().SocketCores(0)
			free := cores.Minus(cores.Take(ml.MLCores()))
			if err := cg.SetCPUs("agg", free.Take(agg.Config().Threads)); err != nil {
				return 0, 0, err
			}
			if err := n.AddTask(agg, "agg"); err != nil {
				return 0, 0, err
			}
		}
		n.Run(h.Warmup)
		n.StartMeasurement()
		n.Run(h.Measure)
		return task.Throughput(n.Now()), task.HostShare(), nil
	}
	alone, hostShare, err := run(false)
	if err != nil {
		return nil, err
	}
	contended, _, err := run(true)
	if err != nil {
		return nil, err
	}
	row := &RatioRow{ML: ml, HostShare: hostShare}
	if alone > 0 {
		row.Perf = contended / alone
	}
	return row, nil
}

// RatioTable renders the sweep.
func RatioTable(rows []RatioRow) *Table {
	t := NewTable("CNN compute/communication ratio sweep (paper's omitted analysis)",
		"ML", "Host share", "DRAM-contended perf")
	for _, r := range rows {
		t.AddRow(r.ML, fmt.Sprintf("%.2f", r.HostShare), r.Perf)
	}
	return t
}
