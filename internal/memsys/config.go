// Package memsys models the host memory system of a dual-socket server: per
// socket memory controllers with a queueing-latency and saturation model,
// NUMA subdomains (Intel SNC / Cluster-on-Die), a shared last-level cache
// with way partitioning (Intel CAT), the cross-socket interconnect (UPI/QPI),
// and the socket-wide memory backpressure ("distress signal") mechanism the
// Kelp paper identifies as the source of cross-subdomain interference.
//
// The model is a fluid one: each simulation step, every task submits a Flow
// describing its offered memory traffic, and Resolve computes bandwidth
// grants, effective latencies, cache hit fractions, and backpressure throttle
// factors for that step. Execution-rate effects are applied by the caller
// (the node package), keeping this package purely about the memory fabric.
//
// A node's flow set cycles through a few shapes, so a System remembers the
// fixed points of its last few distinct flow sets: Resolve of a set it
// remembers returns the remembered resolution, bitwise what a recompute
// would give, and only a new set is computed (docs/PERFORMANCE.md §3).
package memsys

import (
	"fmt"
)

// GB is 2^30 bytes, used for bandwidth constants (bytes/second).
const GB = 1 << 30

// Config describes the memory system of one node.
type Config struct {
	// Sockets is the number of processor packages. The paper's platforms
	// are dual-socket.
	Sockets int
	// ControllersPerSocket is the number of memory controllers per socket.
	// With SNC enabled each controller becomes its own NUMA subdomain.
	ControllersPerSocket int
	// BWPerController is the peak DRAM bandwidth of one controller, bytes/s.
	BWPerController float64
	// BaseLatency is the unloaded memory access latency in seconds.
	BaseLatency float64
	// QueueGain scales how fast queueing latency grows with utilization:
	// lat = base * latfactor * (1 + QueueGain * u^2 / (1 - min(u, uCap))).
	QueueGain float64
	// MaxLatencyStretch caps latency growth under full saturation.
	MaxLatencyStretch float64
	// DistressThreshold is the controller utilization at which the distress
	// signal starts asserting (the FAST_ASSERTED analog).
	DistressThreshold float64
	// MaxBackpressure is the maximum fraction of core execution rate removed
	// by a fully-asserted distress signal. The signal is broadcast to every
	// core on the socket — including the other subdomain's — which is the
	// paper's key observation (§IV-B).
	MaxBackpressure float64
	// SNCEnabled splits each socket into ControllersPerSocket NUMA
	// subdomains. Off, traffic interleaves across all controllers.
	SNCEnabled bool
	// SNCLocalLatencyFactor is the unloaded-latency multiplier for accesses
	// within a subdomain when SNC is on (< 1: the paper notes lower local
	// LLC and memory latency as a side benefit of subdomains).
	SNCLocalLatencyFactor float64

	// LLC configuration (per socket).
	LLCSize float64 // bytes
	LLCWays int

	// Interconnect (UPI/QPI) between the two sockets.
	LinkBW float64 // bytes/s per direction
	// LinkLatency is the latency adder for a remote access, seconds.
	LinkLatency float64
	// CoherenceFactor multiplies the effective remote-access penalty;
	// platforms with heavier coherence protocols (the Cloud TPU hosts in
	// the paper, Fig. 15/16) use a value > 1.
	CoherenceFactor float64
	// FineGrainedQoS enables the hardware request-level memory isolation
	// the paper proposes as future work (§VI-C, §VI-D): memory controllers
	// serve high-priority flows first (low-priority flows share what
	// remains), and the distress signal throttles only the offending
	// low-priority cores instead of broadcasting socket-wide. The paper
	// estimates this mechanism beats both Subdomain (better ML performance:
	// no channel fragmentation) and CoreThrottle/Kelp (better CPU
	// throughput: full-socket bandwidth stays usable).
	FineGrainedQoS bool
	// FineGrainedLowShare reserves a minimum bandwidth fraction for
	// low-priority flows under FineGrainedQoS so they are never fully
	// starved (an MBA-style floor).
	FineGrainedLowShare float64
	// RemoteSnoopPenalty scales the socket-wide execution stall caused by
	// cross-socket coherence traffic: every local access must be ordered
	// against in-flight snoops, so heavy interconnect traffic slows even
	// cores that never touch remote memory. The stall grows with link load
	// and with (CoherenceFactor - 1), so platforms with cheap coherence
	// (TPU, GPU hosts) barely feel it while the Cloud TPU hosts do —
	// reproducing the paper's §VI-A observation.
	RemoteSnoopPenalty float64
}

// DefaultConfig returns a configuration resembling the paper's dual-socket
// Xeon hosts: 2 sockets x 2 controllers x 38.4 GB/s, ~90 ns unloaded
// latency, 11-way 38.5 MB LLC (scaled), and a UPI-class interconnect.
func DefaultConfig() Config {
	return Config{
		Sockets:               2,
		ControllersPerSocket:  2,
		BWPerController:       38.4 * GB,
		BaseLatency:           90e-9,
		QueueGain:             0.9,
		MaxLatencyStretch:     5.0,
		DistressThreshold:     0.75,
		MaxBackpressure:       0.80,
		SNCEnabled:            false,
		SNCLocalLatencyFactor: 0.90,
		LLCSize:               38.5e6,
		LLCWays:               11,
		LinkBW:                41.6 * GB,
		LinkLatency:           70e-9,
		CoherenceFactor:       1.0,
		RemoteSnoopPenalty:    6.0,
		FineGrainedQoS:        false,
		FineGrainedLowShare:   0.10,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Sockets < 1 || c.Sockets > 8:
		return fmt.Errorf("memsys: Sockets = %d out of range [1, 8]", c.Sockets)
	case c.ControllersPerSocket < 1:
		return fmt.Errorf("memsys: ControllersPerSocket = %d", c.ControllersPerSocket)
	case c.BWPerController <= 0:
		return fmt.Errorf("memsys: BWPerController = %v", c.BWPerController)
	case c.BaseLatency <= 0:
		return fmt.Errorf("memsys: BaseLatency = %v", c.BaseLatency)
	case c.MaxLatencyStretch < 1:
		return fmt.Errorf("memsys: MaxLatencyStretch = %v", c.MaxLatencyStretch)
	case c.DistressThreshold <= 0 || c.DistressThreshold >= 1:
		return fmt.Errorf("memsys: DistressThreshold = %v not in (0,1)", c.DistressThreshold)
	case c.MaxBackpressure < 0 || c.MaxBackpressure >= 1:
		return fmt.Errorf("memsys: MaxBackpressure = %v not in [0,1)", c.MaxBackpressure)
	case c.LLCSize <= 0 || c.LLCWays < 1:
		return fmt.Errorf("memsys: LLC %v bytes / %d ways", c.LLCSize, c.LLCWays)
	case c.Sockets > 1 && c.LinkBW <= 0:
		return fmt.Errorf("memsys: LinkBW = %v", c.LinkBW)
	case c.CoherenceFactor < 1:
		return fmt.Errorf("memsys: CoherenceFactor = %v < 1", c.CoherenceFactor)
	case c.RemoteSnoopPenalty < 0:
		return fmt.Errorf("memsys: RemoteSnoopPenalty = %v", c.RemoteSnoopPenalty)
	case c.FineGrainedLowShare < 0 || c.FineGrainedLowShare > 0.5:
		return fmt.Errorf("memsys: FineGrainedLowShare = %v not in [0, 0.5]", c.FineGrainedLowShare)
	}
	return nil
}

// SocketBW returns a socket's aggregate peak bandwidth.
func (c Config) SocketBW() float64 {
	return c.BWPerController * float64(c.ControllersPerSocket)
}

// Subdomains returns the number of NUMA subdomains per socket under the
// current SNC setting.
func (c Config) Subdomains() int {
	if c.SNCEnabled {
		return c.ControllersPerSocket
	}
	return 1
}

// AllWays returns the way bitmask covering the entire LLC.
func (c Config) AllWays() uint64 {
	return (uint64(1) << uint(c.LLCWays)) - 1
}
