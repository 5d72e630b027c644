package memsys

import "fmt"

// Flow describes one task's offered memory traffic for one simulation step.
// A task running threads on several sockets submits one flow per socket.
type Flow struct {
	// Task identifies the owning task (for debugging and accounting).
	Task string
	// Socket is the socket whose cores execute this flow's threads. The
	// flow contends for this socket's LLC and is throttled by this socket's
	// backpressure signal.
	Socket int
	// Subdomain is the NUMA subdomain holding the flow's local data when
	// SNC is enabled. Ignored when SNC is off (traffic interleaves across
	// the socket's controllers).
	Subdomain int
	// DemandBW is the compulsory DRAM traffic the task offers at full
	// speed, bytes/s (streaming misses plus prefetch traffic).
	DemandBW float64
	// RemoteFrac is the fraction of DRAM traffic that targets the other
	// socket's memory, exercising the interconnect.
	RemoteFrac float64
	// LLCFootprint is the number of bytes the task wants resident in the
	// LLC; 0 means the task makes no reuse of the LLC.
	LLCFootprint float64
	// LLCRefBW is the reuse traffic (bytes/s) served by the LLC when the
	// footprint is fully resident. The non-resident fraction becomes
	// additional DRAM traffic.
	LLCRefBW float64
	// LLCWayMask restricts which cache ways the flow may occupy (Intel CAT
	// analog). Zero means all ways.
	LLCWayMask uint64
	// HighPriority marks the flow's requests as high-priority for the
	// fine-grained hardware QoS mode (Config.FineGrainedQoS): prioritized
	// at the memory controllers and exempt from distress throttling.
	// Ignored when fine-grained QoS is off.
	HighPriority bool
}

func (f *Flow) validate(cfg *Config) error {
	switch {
	case f.Socket < 0 || f.Socket >= cfg.Sockets:
		return fmt.Errorf("memsys: flow %q: socket %d out of range", f.Task, f.Socket)
	case f.Subdomain < 0 || f.Subdomain >= cfg.ControllersPerSocket:
		return fmt.Errorf("memsys: flow %q: subdomain %d out of range", f.Task, f.Subdomain)
	case f.DemandBW < 0 || f.LLCRefBW < 0 || f.LLCFootprint < 0:
		return fmt.Errorf("memsys: flow %q: negative traffic", f.Task)
	case f.RemoteFrac < 0 || f.RemoteFrac > 1:
		return fmt.Errorf("memsys: flow %q: RemoteFrac = %v", f.Task, f.RemoteFrac)
	case f.LLCWayMask != 0 && f.LLCWayMask&^cfg.AllWays() != 0:
		return fmt.Errorf("memsys: flow %q: way mask %#x exceeds %d ways", f.Task, f.LLCWayMask, cfg.LLCWays)
	}
	return nil
}

// FlowResult is the resolved outcome for one flow in one step.
type FlowResult struct {
	// DRAMTraffic is the flow's resolved offered DRAM traffic, bytes/s,
	// including LLC-miss spill.
	DRAMTraffic float64
	// Granted is the DRAM bandwidth actually granted, bytes/s.
	Granted float64
	// BWFraction is Granted/DRAMTraffic (1 when the flow offered nothing).
	BWFraction float64
	// Latency is the average memory access latency the flow observes,
	// seconds, blending local and remote components.
	Latency float64
	// LatencyStretch is Latency divided by the unloaded base latency.
	LatencyStretch float64
	// LLCHit is the fraction of the flow's footprint resident in the LLC.
	LLCHit float64
	// Backpressure is the execution-rate multiplier (<= 1) imposed by the
	// socket-wide distress signal.
	Backpressure float64
	// SnoopStretch is the coherence stall stretch (>= 1) of the flow's
	// socket.
	SnoopStretch float64
}

// ControllerState reports one memory controller's step outcome.
type ControllerState struct {
	Socket, Index int
	// Offered is total demand routed to this controller, bytes/s.
	Offered float64
	// Granted is min(Offered, Capacity).
	Granted float64
	// Capacity is the controller's peak bandwidth.
	Capacity float64
	// Utilization is Offered/Capacity (may exceed 1 when oversubscribed).
	Utilization float64
	// Latency is the loaded access latency at this controller, seconds.
	Latency float64
	// Distress is the duty cycle of the distress signal in [0, 1] — the
	// FAST_ASSERTED analog Kelp samples.
	Distress float64
}

// LinkState reports the cross-socket interconnect load in one direction.
type LinkState struct {
	From, To    int
	Offered     float64
	Capacity    float64
	Utilization float64
	// Adder is the loaded remote-access latency penalty, seconds,
	// including the coherence factor.
	Adder float64
}

// Resolution is the memory system's outcome for one step.
//
// Ownership: resolutions returned by System.Resolve and System.Last are
// backed by the system's scratch arena and stay valid until the
// second-following Resolve call on the same system — the same rule as the
// policy controllers' History() slices. Retain longer with Clone.
type Resolution struct {
	// Flows holds one result per submitted flow, in submission order.
	Flows []FlowResult
	// Controllers is indexed by socket*ControllersPerSocket + controller.
	Controllers []ControllerState
	// SocketBackpressure is the per-socket execution multiplier (<= 1).
	SocketBackpressure []float64
	// SocketSnoop is the per-socket coherence stall stretch (>= 1): the
	// execution slowdown imposed by cross-socket snoop traffic.
	SocketSnoop []float64
	// Links holds one entry per (from, to) socket pair with traffic.
	Links []LinkState

	// cps is ControllersPerSocket of the resolving system, recorded so the
	// accessors below can index Controllers directly (socket-major, fixed
	// shape) instead of scanning. Zero — a hand-constructed Resolution —
	// falls back to the linear scan.
	cps int

	// seq identifies the fixed-point computation that produced this
	// resolution: the owning system stamps a fresh value on every
	// recompute, and a memo hit returns the remembered resolution with its
	// stamp unchanged. Pointer identity alone cannot tell a hit from a
	// recompute (a recompute reuses a slot's buffers), so consumers that
	// cache derived values (perfmon) key on (pointer, seq).
	seq uint64
}

// Seq returns the resolution's computation stamp (see the field comment);
// 0 for a hand-constructed resolution.
func (r *Resolution) Seq() uint64 { return r.seq }

// Clone returns a deep copy of the resolution, detached from the owning
// system's scratch arena — for callers that retain a resolution across
// more than one further Resolve call.
func (r *Resolution) Clone() *Resolution {
	if r == nil {
		return nil
	}
	out := &Resolution{
		Flows:              append([]FlowResult(nil), r.Flows...),
		Controllers:        append([]ControllerState(nil), r.Controllers...),
		SocketBackpressure: append([]float64(nil), r.SocketBackpressure...),
		SocketSnoop:        append([]float64(nil), r.SocketSnoop...),
		Links:              append([]LinkState(nil), r.Links...),
		cps:                r.cps,
		seq:                r.seq,
	}
	return out
}

// Controller returns the state of controller idx on the given socket, or a
// zero-signal placeholder carrying the requested coordinates when they are
// out of range. Controllers are laid out socket-major with a fixed number
// per socket, so the lookup is a direct index — this sits on the policy
// controllers' per-sample read path.
func (r *Resolution) Controller(socket, idx int) ControllerState {
	if r.cps > 0 {
		if socket >= 0 && idx >= 0 && idx < r.cps {
			if i := socket*r.cps + idx; i < len(r.Controllers) {
				return r.Controllers[i]
			}
		}
		return ControllerState{Socket: socket, Index: idx}
	}
	// Hand-constructed resolution (cps unset): fall back to scanning.
	for _, c := range r.Controllers {
		if c.Socket == socket && c.Index == idx {
			return c
		}
	}
	return ControllerState{Socket: socket, Index: idx}
}

// SocketOffered returns total traffic offered to a socket's controllers.
func (r *Resolution) SocketOffered(socket int) float64 {
	var t float64
	if r.cps > 0 {
		lo := socket * r.cps
		if socket < 0 || lo >= len(r.Controllers) {
			return 0
		}
		hi := lo + r.cps
		if hi > len(r.Controllers) {
			hi = len(r.Controllers)
		}
		for _, c := range r.Controllers[lo:hi] {
			t += c.Offered
		}
		return t
	}
	for _, c := range r.Controllers {
		if c.Socket == socket {
			t += c.Offered
		}
	}
	return t
}

// SocketGranted returns total bandwidth granted on a socket.
func (r *Resolution) SocketGranted(socket int) float64 {
	var t float64
	for _, c := range r.Controllers {
		if c.Socket == socket {
			t += c.Granted
		}
	}
	return t
}

// MaxDistress returns the largest distress duty cycle on a socket.
func (r *Resolution) MaxDistress(socket int) float64 {
	var d float64
	for _, c := range r.Controllers {
		if c.Socket == socket && c.Distress > d {
			d = c.Distress
		}
	}
	return d
}

// MeanSocketLatency returns the offered-traffic-weighted mean controller
// latency on a socket (the "memory latency" counter Kelp samples). With no
// traffic it returns the unloaded latency of the first controller.
func (r *Resolution) MeanSocketLatency(socket int) float64 {
	var wsum, w float64
	var fallback float64
	for _, c := range r.Controllers {
		if c.Socket != socket {
			continue
		}
		fallback = c.Latency
		wsum += c.Latency * c.Offered
		w += c.Offered
	}
	if w == 0 {
		return fallback
	}
	return wsum / w
}
