// Package workload models the paper's workloads: the four production ML
// applications (RNN1 inference, CNN1/CNN2 training, CNN3 parameter-server
// training), the synthetic aggressors (LLC, DRAM, Remote DRAM at three
// aggressiveness levels), and the low-priority batch jobs used in the
// evaluation (Stream, Stitch, CPUML).
//
// Workloads are fluid state machines. Each simulation step the node asks a
// task what memory traffic it offers (Offer), resolves the memory system,
// and hands back the resulting execution-rate factors (Rates) so the task
// can advance its work. Tasks never touch the memory system directly, which
// keeps the contention model in one place.
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
type Task interface {
	// Name identifies the task instance.
	Name() string
	// Offer writes the task's traffic intent, given cores' worth of CPU
	// available to it, into *o. It must overwrite every field of *o (the
	// node reuses one slot per task across ticks) and be side-effect free.
	Offer(now float64, cores float64, o *Offer)
	// Advance progresses the task by dt given cores' worth of CPU (possibly
	// fractional, under timesharing) and the resolved rates. *r belongs to
	// the caller: Advance must not mutate it.
	Advance(now, dt float64, cores float64, r *Rates)
	// StartMeasurement begins the measured interval (discards warmup).
	StartMeasurement(now float64)
	// Throughput returns measured work rate in the task's natural units
	// per second (steps/s, queries/s, bytes/s, ...) as of now.
	Throughput(now float64) float64
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
