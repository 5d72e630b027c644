package workload

import (
	"fmt"

	"kelp/internal/accel"
	"kelp/internal/sim"
)

// GB is 2^30 bytes, for bandwidth constants.
const GB = 1 << 30

// Level is an aggressor aggressiveness level (paper Fig. 7: L, M, H).
type Level int

// Aggressor levels.
const (
	LevelLow Level = iota
	LevelMedium
	LevelHigh
)

// String returns the level's short name.
func (l Level) String() string {
	switch l {
	case LevelLow:
		return "L"
	case LevelMedium:
		return "M"
	case LevelHigh:
		return "H"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Levels lists all aggressor levels in ascending aggressiveness.
func Levels() []Level { return []Level{LevelLow, LevelMedium, LevelHigh} }

// The four production ML workloads (Table I). The confidential real
// workloads are replaced by parametric models carrying exactly the
// attributes the paper publishes: platform, interaction type, CPU intensity,
// and host memory intensity. Phase durations are chosen so host-side share
// and memory behaviour reproduce the paper's sensitivity ordering
// (CNN1 most sensitive, then CNN3/CNN2, RNN1 least; Fig. 5).

// NewRNN1 returns the RNN inference server (TPU platform, beam-search host
// phase, medium CPU intensity, low host memory intensity). The offered load
// sits at the knee of the throughput/latency curve.
func NewRNN1(device *accel.Device, rng *sim.Stream) (*Inference, error) {
	if device == nil {
		return nil, fmt.Errorf("workload: RNN1 needs a device")
	}
	cfg := InferenceConfig{
		ClosedLoop:           true,
		TargetQPS:            330, // knee reference for open-loop use
		MaxConcurrency:       8,
		IterationsPerRequest: 2,
		CPUWorkPerIter:       2.4e-3, // 2.4 ms of single-threaded beam search
		Mem: MemProfile{
			StreamBWPerCore:         0.8 * GB,
			LLCFootprint:            4e6,
			LLCRefBWPerCore:         1.5 * GB,
			LatencySensitivity:      0.03,
			BWSensitivity:           0.10,
			LLCSensitivity:          0.10,
			BackpressureSensitivity: 0.20,
			PrefetchLoss:            0.15,
		},
		XferBytes:        256 << 10,
		AccelWorkPerIter: 1.2e-3 * 92e12, // 1.2 ms on the TPUv1 engine
		ArrivalJitter:    0.5,
	}
	return NewInference("RNN1", device, cfg, rng)
}

// NewCNN1 returns the first CNN training benchmark (Cloud TPU, data in-feed
// interaction, low CPU intensity, low host memory intensity — but with a
// latency-critical in-feed that makes it the most contention-sensitive
// workload in the paper).
func NewCNN1(platform accel.Platform) (*Training, error) {
	return NewTraining("CNN1", platform, []Phase{
		{
			Kind:     CPUPhase,
			CPUWork:  5.0e-3, // 2.5 ms on 2 cores
			Parallel: 2,
			Mem: MemProfile{
				StreamBWPerCore:         1.2 * GB,
				LLCFootprint:            8e6,
				LLCRefBWPerCore:         2.0 * GB,
				LatencySensitivity:      0.05,
				BWSensitivity:           0.20,
				LLCSensitivity:          0.15,
				BackpressureSensitivity: 1.00,
				PrefetchLoss:            0.30,
			},
		},
		{Kind: XferPhase, Bytes: 2 << 20},
		{Kind: AccelPhase, AccelWork: 7.5e-3 * 180e12},
	})
}

// NewCNN2 returns the second CNN training benchmark (Cloud TPU, data
// in-feed, high CPU intensity, medium host memory intensity).
func NewCNN2(platform accel.Platform) (*Training, error) {
	return NewTraining("CNN2", platform, []Phase{
		{
			Kind:     CPUPhase,
			CPUWork:  48e-3, // 6 ms on 8 cores
			Parallel: 8,
			Mem: MemProfile{
				StreamBWPerCore:         2.0 * GB,
				LLCFootprint:            16e6,
				LLCRefBWPerCore:         1.5 * GB,
				LatencySensitivity:      0.07,
				BWSensitivity:           0.55,
				LLCSensitivity:          0.30,
				BackpressureSensitivity: 0.30,
				PrefetchLoss:            0.30,
			},
		},
		{Kind: XferPhase, Bytes: 4 << 20},
		{Kind: AccelPhase, AccelWork: 10e-3 * 180e12},
	})
}

// NewCNN3 returns the GPU training benchmark (distributed TensorFlow with a
// parameter server on the host: low CPU intensity, high host memory
// intensity; the PS aggregation is bandwidth-hungry and on the critical
// path of every lock-step iteration).
func NewCNN3(platform accel.Platform) (*Training, error) {
	return NewTraining("CNN3", platform, []Phase{
		{Kind: AccelPhase, AccelWork: 24e-3 * 120e12},
		{Kind: XferPhase, Bytes: 8 << 20},
		{
			Kind:     CPUPhase,
			CPUWork:  40e-3, // 10 ms on 4 cores of gradient aggregation
			Parallel: 4,
			Mem: MemProfile{
				StreamBWPerCore:         3.5 * GB,
				LLCFootprint:            12e6,
				LLCRefBWPerCore:         1.0 * GB,
				LatencySensitivity:      0.07,
				BWSensitivity:           0.85,
				LLCSensitivity:          0.25,
				BackpressureSensitivity: 0.45,
				PrefetchLoss:            0.30,
			},
		},
	})
}

// aggressorThreads maps levels to thread counts.
func aggressorThreads(l Level) int {
	switch l {
	case LevelLow:
		return 4
	case LevelMedium:
		return 8
	default:
		return 14
	}
}

// NewDRAMAggressor returns the paper's DRAM antagonist: a streaming kernel
// whose working set far exceeds the LLC.
func NewDRAMAggressor(level Level) (*Loop, error) {
	return NewLoop(fmt.Sprintf("DRAM-%s", level), LoopConfig{
		Threads: aggressorThreads(level),
		Mem: MemProfile{
			StreamBWPerCore:         5.5 * GB,
			LLCFootprint:            256e6, // 256 MB working set: thrashes any LLC
			LLCRefBWPerCore:         0,
			LatencySensitivity:      0.05,
			BWSensitivity:           1.0,
			BackpressureSensitivity: 0.20,
			PrefetchLoss:            0.45,
		},
		UnitWork: 1e-3,
	})
}

// NewLLCAggressor returns the paper's LLC antagonist: a working set sized
// just under the LLC so it contends for cache capacity (and, on real
// hardware, SMT pipeline resources) without heavy DRAM traffic.
func NewLLCAggressor(llcSize float64) (*Loop, error) {
	if llcSize <= 0 {
		return nil, fmt.Errorf("workload: llcSize = %v", llcSize)
	}
	return NewLoop("LLC", LoopConfig{
		Threads: 8,
		Mem: MemProfile{
			StreamBWPerCore:         0.25 * GB,
			LLCFootprint:            0.95 * llcSize,
			LLCRefBWPerCore:         4.0 * GB,
			LatencySensitivity:      0.30,
			BWSensitivity:           0.20,
			LLCSensitivity:          0.80,
			BackpressureSensitivity: 0.30,
			PrefetchLoss:            0.10,
		},
		UnitWork: 1e-3,
	})
}

// NewRemoteDRAMAggressor returns a DRAM antagonist whose memory partially
// or fully resides on the remote socket (paper §VI-A). remoteFrac is the
// fraction of its traffic that crosses the interconnect.
func NewRemoteDRAMAggressor(level Level, remoteFrac float64) (*Loop, error) {
	if remoteFrac < 0 || remoteFrac > 1 {
		return nil, fmt.Errorf("workload: remoteFrac = %v", remoteFrac)
	}
	l, err := NewDRAMAggressor(level)
	if err != nil {
		return nil, err
	}
	cfg := l.Config()
	cfg.Mem.RemoteFrac = remoteFrac
	return NewLoop(fmt.Sprintf("RemoteDRAM-%s", level), cfg)
}

// NewStream returns the Stream batch job: a measurable bandwidth hog
// traversing an array that exceeds every platform's LLC.
func NewStream(threads int) (*Loop, error) {
	if threads < 1 {
		threads = 8
	}
	return NewLoop("Stream", LoopConfig{
		Threads: threads,
		Mem: MemProfile{
			StreamBWPerCore:         5.0 * GB,
			LLCFootprint:            192e6,
			LatencySensitivity:      0.05,
			BWSensitivity:           1.0,
			BackpressureSensitivity: 0.20,
			PrefetchLoss:            0.45,
		},
		UnitWork: 1e-3,
	})
}

// NewStitch returns one instance of the Stitch production batch job
// (panorama stitching for Street View): moderately memory-intensive image
// processing with meaningful cache reuse.
func NewStitch(instance int) (*Loop, error) {
	return NewLoop(fmt.Sprintf("Stitch-%d", instance), LoopConfig{
		Threads:         4,
		BurstPeriod:     0.15,
		BurstDuty:       0.6,
		BurstIdleFactor: 0.3,
		BurstPhase:      0.055 * float64(instance),
		Mem: MemProfile{
			StreamBWPerCore:         4.0 * GB,
			LLCFootprint:            6e6,
			LLCRefBWPerCore:         1.0 * GB,
			LatencySensitivity:      0.10,
			BWSensitivity:           0.70,
			LLCSensitivity:          0.30,
			BackpressureSensitivity: 0.30,
			PrefetchLoss:            0.35,
		},
		UnitWork: 5e-3,
	})
}

// NewCPUML returns the CPUML batch job: CPU-based CNN training
// (TensorFlow-Slim in the paper) with the given thread count.
func NewCPUML(threads int) (*Loop, error) {
	if threads < 1 {
		return nil, fmt.Errorf("workload: CPUML threads = %d", threads)
	}
	return NewLoop("CPUML", LoopConfig{
		Threads:         threads,
		BurstPeriod:     0.2,
		BurstDuty:       0.5,
		BurstIdleFactor: 0.3,
		Mem: MemProfile{
			StreamBWPerCore:         4.2 * GB,
			LLCFootprint:            10e6,
			LLCRefBWPerCore:         1.5 * GB,
			LatencySensitivity:      0.15,
			BWSensitivity:           0.40,
			LLCSensitivity:          0.35,
			BackpressureSensitivity: 0.30,
			PrefetchLoss:            0.30,
		},
		UnitWork: 10e-3,
	})
}
