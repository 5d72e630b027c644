// Package accel models the accelerator side of the paper's three platforms:
// the first-generation TPU (inference), the Cloud TPU (training and
// inference), and a GPU training platform.
//
// The paper's central measurement is that accelerator-side execution time is
// *insensitive* to host memory contention (Fig. 3: the TPU and communication
// blocks do not stretch), while host CPU phases stretch dramatically. The
// model therefore gives each accelerator a fixed compute rate and local
// memory bandwidth, plus a PCIe link whose transfers the paper also found
// unconstraining ("we did not observe PCI-e BW constraining the profiled
// workloads", §VII-B).
package accel

import "fmt"

// Kind identifies an accelerator platform.
type Kind int

// The paper's platforms (Table I).
const (
	TPU      Kind = iota // first-generation TPU, inference (RNN1)
	CloudTPU             // second-generation TPU, training (CNN1, CNN2)
	GPU                  // GPU training platform (CNN3)
)

// String returns the platform name.
func (k Kind) String() string {
	switch k {
	case TPU:
		return "TPU"
	case CloudTPU:
		return "CloudTPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Platform describes one accelerator device attached to the host.
type Platform struct {
	Kind Kind
	// Name for display (e.g. "TPUv1").
	Name string
	// ComputeRate is abstract accelerator work units per second. Workload
	// phases are expressed in the same units, so only ratios matter.
	ComputeRate float64
	// LocalMemBW is the accelerator's own memory bandwidth, bytes/s. The
	// paper notes production workloads are bound by this, which is why
	// time-multiplexing the accelerator is pointless (§II-A); we expose it
	// for documentation and utilization accounting.
	LocalMemBW float64
	// PCIeBW is the host link bandwidth, bytes/s.
	PCIeBW float64
	// PCIeLatency is the fixed per-transfer latency, seconds.
	PCIeLatency float64
	// HostCoherencePenalty scales the host's remote-socket access cost on
	// this platform (the paper's Cloud TPU hosts showed much higher remote
	// traffic sensitivity; Figs. 15-16).
	HostCoherencePenalty float64
}

// Validate reports whether the platform is usable.
func (p Platform) Validate() error {
	switch {
	case p.ComputeRate <= 0:
		return fmt.Errorf("accel %s: ComputeRate = %v", p.Name, p.ComputeRate)
	case p.LocalMemBW <= 0:
		return fmt.Errorf("accel %s: LocalMemBW = %v", p.Name, p.LocalMemBW)
	case p.PCIeBW <= 0:
		return fmt.Errorf("accel %s: PCIeBW = %v", p.Name, p.PCIeBW)
	case p.PCIeLatency < 0:
		return fmt.Errorf("accel %s: PCIeLatency = %v", p.Name, p.PCIeLatency)
	case p.HostCoherencePenalty < 1:
		return fmt.Errorf("accel %s: HostCoherencePenalty = %v", p.Name, p.HostCoherencePenalty)
	}
	return nil
}

const gb = 1 << 30

// NewTPU returns the first-generation TPU platform: 92 TOPS-class inference
// accelerator behind PCIe 3.0 x16.
func NewTPU() Platform {
	return Platform{
		Kind:                 TPU,
		Name:                 "TPUv1",
		ComputeRate:          92e12,
		LocalMemBW:           34 * gb,
		PCIeBW:               12.5 * gb,
		PCIeLatency:          10e-6,
		HostCoherencePenalty: 1.15,
	}
}

// NewCloudTPU returns the second-generation Cloud TPU platform: 180 TFLOPS,
// 64 GB HBM, and a host whose coherence implementation makes remote-socket
// traffic notably expensive (paper §VI-A).
func NewCloudTPU() Platform {
	return Platform{
		Kind:                 CloudTPU,
		Name:                 "CloudTPU",
		ComputeRate:          180e12,
		LocalMemBW:           600 * gb,
		PCIeBW:               12.5 * gb,
		PCIeLatency:          10e-6,
		HostCoherencePenalty: 1.8,
	}
}

// NewGPU returns a training GPU platform.
func NewGPU() Platform {
	return Platform{
		Kind:                 GPU,
		Name:                 "GPU",
		ComputeRate:          120e12,
		LocalMemBW:           900 * gb,
		PCIeBW:               12.5 * gb,
		PCIeLatency:          8e-6,
		HostCoherencePenalty: 1.15,
	}
}

// ComputeTime returns how long the accelerator needs for work units of
// compute, ignoring host effects.
func (p Platform) ComputeTime(work float64) float64 {
	if work <= 0 {
		return 0
	}
	return work / p.ComputeRate
}

// TransferTime returns the PCIe time for moving bytes to or from the device.
func (p Platform) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return p.PCIeLatency + bytes/p.PCIeBW
}

// Device is one accelerator instance with FIFO occupancy accounting. The
// paper's usage model gives a single application exclusive device access
// (§II-A), but phases from multiple in-flight requests of that application
// still serialize on the engine — which is what creates queueing in the
// pipelined RNN1 server.
type Device struct {
	Platform Platform
	// busyUntil is the simulated time at which the engine frees up.
	busyUntil float64
}

// NewDevice returns a device for the platform.
func NewDevice(p Platform) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Device{Platform: p}, nil
}

// BusyUntil returns when the engine frees up.
func (d *Device) BusyUntil() float64 { return d.busyUntil }

// SetBusyUntil overwrites the engine-free time. This is the restore hook
// for simulation snapshots (the experiments layer's warm-started sweep
// cells); simulation code advances the device through Reserve only.
func (d *Device) SetBusyUntil(t float64) { d.busyUntil = t }

// Reserve schedules work units on the engine starting no earlier than now,
// returning when that work will finish. Requests are served FIFO.
func (d *Device) Reserve(now, work float64) (finish float64) {
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + d.Platform.ComputeTime(work)
	return d.busyUntil
}
