// Package workload models the paper's workloads: the four production ML
// applications (RNN1 inference, CNN1/CNN2 training, CNN3 parameter-server
// training), the synthetic aggressors (LLC, DRAM, Remote DRAM at three
// aggressiveness levels), and the low-priority batch jobs used in the
// evaluation (Stream, Stitch, CPUML).
//
// Workloads are fluid state machines. Each simulation step the node asks a
// task what memory traffic it offers (Offer), resolves the memory system,
// and hands back the resulting execution-rate factors (Rates) so the task
// can advance its work, for the whole run of ticks over which those
// factors hold (Task.Advance). Tasks never touch the memory system
// directly, which keeps the contention model in one place.
package workload

import "fmt"

// MemProfile describes the memory behaviour of a task's current CPU
// activity. All sensitivities are unitless weights in [0, 1].
type MemProfile struct {
	// StreamBWPerCore is the compulsory DRAM demand per active core at
	// full speed, bytes/s (before prefetch inflation).
	StreamBWPerCore float64
	// LLCFootprint is the bytes the task wants resident in the LLC.
	LLCFootprint float64
	// LLCRefBWPerCore is reuse traffic per core served by the LLC when
	// resident, bytes/s; misses spill to DRAM.
	LLCRefBWPerCore float64
	// LatencySensitivity weights how much loaded-latency stretch slows the
	// task (pointer-chasing-like work is near 1, compute-bound near 0).
	LatencySensitivity float64
	// BWSensitivity weights how much bandwidth starvation slows the task
	// (streaming kernels are near 1).
	BWSensitivity float64
	// LLCSensitivity weights how much lost LLC residency slows the task.
	LLCSensitivity float64
	// PrefetchLoss is the fraction of execution rate lost when L2
	// prefetchers are disabled (e.g. 0.45: a streaming kernel runs at 55%
	// speed without prefetching). Nominal full rate assumes prefetchers on,
	// matching how standalone baselines are measured.
	PrefetchLoss float64
	// BackpressureSensitivity weights how hard the socket-wide distress
	// throttling hits this task's execution rate. The paper's CNN1 loses
	// 50% to backpressure alone while CNN2 loses 10% (Fig. 7), so the
	// effect is strongly workload-dependent.
	BackpressureSensitivity float64
	// RemoteFrac is the fraction of DRAM traffic that targets the remote
	// socket.
	RemoteFrac float64
}

// Validate reports whether the profile's fields are in range.
func (p MemProfile) Validate() error {
	check01 := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("workload: %s = %v not in [0,1]", name, v)
		}
		return nil
	}
	if p.StreamBWPerCore < 0 || p.LLCFootprint < 0 || p.LLCRefBWPerCore < 0 {
		return fmt.Errorf("workload: negative traffic in profile")
	}
	if p.PrefetchLoss < 0 || p.PrefetchLoss > 0.9 {
		return fmt.Errorf("workload: PrefetchLoss = %v", p.PrefetchLoss)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"LatencySensitivity", p.LatencySensitivity},
		{"BWSensitivity", p.BWSensitivity},
		{"LLCSensitivity", p.LLCSensitivity},
		{"BackpressureSensitivity", p.BackpressureSensitivity},
		{"RemoteFrac", p.RemoteFrac},
	} {
		if err := check01(c.name, c.v); err != nil {
			return err
		}
	}
	return nil
}

// Offer is a task's resource intent for the coming step.
type Offer struct {
	// ActiveCores is how many cores' worth of CPU work the task wants to
	// run this step (an ML task waiting on its accelerator offers fewer).
	// Fractional values arise when a cgroup's cores are timeshared among
	// its tasks.
	ActiveCores float64
	// Mem is the memory behaviour of the active CPU work.
	Mem MemProfile
}

// Rates carries the resolved execution-rate factors back to a task.
type Rates struct {
	// CPUFactor is the combined execution multiplier for CPU work in
	// (0, 1+PrefetchLoss]: backpressure x latency stretch x bandwidth
	// starvation x LLC misses x prefetch bonus.
	CPUFactor float64
	// Latency is the loaded memory latency the task observed, seconds.
	Latency float64
	// LatencyStretch is Latency divided by the unloaded base latency.
	LatencyStretch float64
	// BWFraction is granted/offered DRAM bandwidth.
	BWFraction float64
	// LLCHit is the resident fraction of the task's footprint.
	LLCHit float64
	// Backpressure is the socket-wide throttle component alone.
	Backpressure float64
	// SnoopStretch is the socket's coherence-stall stretch (>= 1) from
	// cross-socket traffic.
	SnoopStretch float64
}

// Task is a runnable workload.
//
// A task's offer is piecewise constant: it changes only at instants the
// task can name in advance (a burst edge) or when Advance changes the
// task's state (a new phase, a request entering or leaving its CPU
// phase). The contract exposes both, so the node can skip asking while
// neither can have happened: Offer returns a horizon, and Advance reports
// reoffer. Reoffer means that offer-relevant state changed, not that the
// offer did: an Inference server with more CPU-phase requests than cores
// offers the same for one request more, so the node asks for the offer to
// confirm a reoffer before it ends a run on it. Advance is the only method
// that changes offer-relevant state; restoring a snapshot (TaskRestore) is
// the one exception, and whoever restores must ask for a fresh offer.
//
// Between two offer-relevant changes nothing a tick reads changes either,
// so Advance takes a whole run of ticks in one call: the node hands a task
// every tick up to its next offer horizon or controller, and the task
// stops early at the tick that reports reoffer. A Training task folds the
// ticks inside one phase into one exact repeated subtraction
// (sim.AddWhile), a Loop its whole run, and an Inference server takes the
// ticks in which nothing but progress happens request by request; a
// Pipelined task ticks one by one.
//
// Every task can capture and restore its full mutable state: the node
// snapshots behind warm-started sweep cells (docs/PERFORMANCE.md) and
// kelpd's session snapshots are built from these.
type Task interface {
	// Name identifies the task instance.
	Name() string
	// Offer writes the task's traffic intent, given cores' worth of CPU
	// available to it, into *o. It must overwrite every field of *o (the
	// node reuses one slot per task across ticks) and be side-effect free.
	// It returns the offer's horizon: given the same cores, and until
	// Advance reports reoffer, the offer it wrote stays exact for every
	// later tick before until. +Inf means only Advance can change it; a
	// horizon at or before the next tick means ask again.
	Offer(now float64, cores float64, o *Offer) (until float64)
	// Advance progresses the task by up to n ticks of dt from now, given
	// cores' worth of CPU (possibly fractional, under timesharing) and the
	// resolved rates, all constant over the run. *r belongs to the caller:
	// Advance must not mutate it. It stops after the first tick that
	// changed offer-relevant state, voiding the last Offer's horizon, and
	// reports reoffer, whether or not the offer itself changed; otherwise
	// it advances all n ticks. It returns the
	// ticks it advanced, and must be bit for bit that many one-tick calls,
	// the i-th at now advanced by i repeated adds of dt.
	Advance(now, dt float64, n int, cores float64, r *Rates) (ticks int, reoffer bool)
	// StartMeasurement begins the measured interval (discards warmup).
	StartMeasurement(now float64)
	// Throughput returns measured work rate in the task's natural units
	// per second (steps/s, queries/s, bytes/s, ...) as of now.
	Throughput(now float64) float64
	// TaskSnapshot captures the task's mutable state. The returned value
	// is opaque to callers, immutable, and shareable across restores.
	TaskSnapshot() any
	// TaskRestore installs a state captured by TaskSnapshot on a task
	// built from the same configuration.
	TaskRestore(st any) error
}

// CPUFactor combines the resolved memory outcomes into one execution-rate
// multiplier. prefetchFrac is the fraction of the task's cores with L2
// prefetchers enabled.
//
// The blend is multiplicative: each mechanism independently removes a slice
// of execution rate, which matches the paper's observation that backpressure
// hurts even bandwidth-isolated subdomains.
func CPUFactor(p MemProfile, r Rates, prefetchFrac float64) float64 {
	bwFrac := r.BWFraction
	if bwFrac <= 0 {
		bwFrac = 1e-3
	}
	if bwFrac > 1 {
		bwFrac = 1
	}
	// Stretch below 1 (SNC's lower local latency) yields a small speedup,
	// reproducing the paper's better-than-standalone best cases (§IV-B).
	stretch := r.LatencyStretch
	if stretch < 0.8 {
		stretch = 0.8
	}
	latPenalty := 1 / (1 + p.LatencySensitivity*(stretch-1))
	bwPenalty := 1 / (1 + p.BWSensitivity*(1/bwFrac-1))
	llcPenalty := 1 - p.LLCSensitivity*(1-clamp01(r.LLCHit))
	if llcPenalty < 0.05 {
		llcPenalty = 0.05
	}
	bp := clamp01(r.Backpressure)
	// The distress signal's impact is workload-dependent: issue-rate
	// throttling devastates dependent-load in-feed pipelines (CNN1) but
	// barely slows already-stalled streaming kernels.
	bpFactor := 1 - p.BackpressureSensitivity*(1-bp)
	if bpFactor < 0.05 {
		bpFactor = 0.05
	}
	// Coherence stalls from cross-socket traffic hit every core; tasks
	// whose pipelines tolerate stalls poorly (high backpressure
	// sensitivity) suffer more, with a 0.4 floor because snoop ordering
	// delays are unavoidable.
	snoopPenalty := 1.0
	if r.SnoopStretch > 1 {
		weight := 0.4 + 0.6*p.BackpressureSensitivity
		snoopPenalty = 1 / (1 + (r.SnoopStretch-1)*weight)
	}
	// Distress throttling and snoop stalls are both issue-rate stalls on
	// the same core; they overlap rather than compound, so the dominant
	// one governs.
	stall := bpFactor
	if snoopPenalty < stall {
		stall = snoopPenalty
	}
	// Disabled prefetchers remove PrefetchLoss of the task's rate; the
	// nominal full rate assumes prefetchers on.
	pfFactor := 1 - p.PrefetchLoss*(1-clamp01(prefetchFrac))
	return stall * latPenalty * bwPenalty * llcPenalty * pfFactor
}

// MBAPenalty returns the execution-rate multiplier imposed by an Intel MBA
// throttle at the given fraction m in (0, 1]. MBA's rate controller sits
// between the core and the interconnect, so it delays LLC-served requests
// as much as DRAM-bound ones (paper §VI-D) — the penalty weights the
// task's *total* memory dependence, cache reuse included. This is exactly
// the defect that motivates request-level (fine-grained) isolation instead.
func MBAPenalty(p MemProfile, m float64) float64 {
	if m >= 1 {
		return 1
	}
	if m < 0.05 {
		m = 0.05
	}
	memWeight := clamp01(p.BWSensitivity + 0.7*p.LLCSensitivity)
	return 1 / (1 + memWeight*(1/m-1))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
