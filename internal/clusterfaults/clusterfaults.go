// Package clusterfaults is the cluster-level sibling of internal/faults: a
// deterministic, seedable fault model for distributed lock-step training.
// Where internal/faults perturbs one node's controller signal path, this
// package injects the failures a real training fleet sees between nodes —
// workers that crash and restart, workers that hang at a barrier, and
// workers whose interference level escalates mid-run. The recovery
// machinery in internal/cluster (checkpoint/restore, barrier timeouts with
// a straggler policy, bounded restart retry) is its defensive counterpart,
// and the pair turns the cluster reproduction from "every worker is
// immortal" into a goodput study: useful steps per wall-clock second net of
// downtime and rework.
//
// Fault classes are rates per simulated second of cluster time, not
// per-step probabilities, so a policy that shortens steps (Kelp protecting
// the straggler) sees the same failure intensity in wall-clock terms but
// loses fewer steps of work per failure — exactly the fleet-goodput
// argument for isolation.
//
// All randomness comes from xorshift64* generators (sim.Xorshift) seeded from
// Spec.Seed — no math/rand global state, no wall clock — with one
// independent stream per (fault class, worker) pair, so identical
// (seed, spec, worker count) triples replay identical fault sequences
// regardless of which classes are enabled together. A nil *Injector is a
// valid no-op on every method, so the cluster runtime needs no branching;
// with no injector attached every step passes through untouched.
package clusterfaults

import (
	"fmt"
	"math"

	"kelp/internal/kvspec"
	"kelp/internal/sim"
)

// Spec configures the injector. Crash, Hang and Degrade are rates per
// simulated second of per-worker execution (an exponential hazard: a step
// of duration d fails with probability 1 - exp(-rate*d)); the remaining
// fields shape each fault. The zero value disables every class.
type Spec struct {
	// Seed roots the injector's private PRNG streams.
	Seed uint64
	// Crash is the per-second rate at which a worker's node is lost
	// mid-step. A crash aborts the in-flight global step and rolls the
	// cluster back to its last checkpoint.
	Crash float64
	// Downtime is how long a crashed worker stays down before its first
	// restart attempt, seconds. 0 selects DefaultDowntime.
	Downtime float64
	// RestartFail is the probability each restart attempt fails (the node
	// comes back wedged and must be retried after backoff).
	RestartFail float64
	// Hang is the per-second rate at which a worker stalls at the barrier:
	// its current step stretches by HangDur.
	Hang float64
	// HangDur is how long a hung worker stalls, seconds. 0 selects
	// DefaultHangDur.
	HangDur float64
	// Degrade is the per-second rate at which a worker's colocated
	// aggressor escalates one level, permanently (at most once per
	// worker). The degraded step-time series is measured by actually
	// simulating the worker under the escalated interference, so an
	// isolation policy shrinks the degradation it causes.
	Degrade float64
}

// Defaults for the duration-shaped fields when the spec leaves them zero.
const (
	// DefaultDowntime is the restart downtime after a crash, seconds.
	DefaultDowntime = 2.0
	// DefaultHangDur is the barrier stall of a hung worker, seconds.
	DefaultHangDur = 1.0
)

// Enabled reports whether any fault class has a non-zero rate.
func (s Spec) Enabled() bool {
	return s.Crash > 0 || s.Hang > 0 || s.Degrade > 0
}

// Validate reports whether rates are non-negative and finite, RestartFail
// is a probability, and the durations are sane.
func (s Spec) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"crash", s.Crash}, {"hang", s.Hang}, {"degrade", s.Degrade},
	} {
		if math.IsNaN(r.v) || math.IsInf(r.v, 0) || r.v < 0 {
			return fmt.Errorf("clusterfaults: %s = %v, want a finite rate >= 0 per second", r.name, r.v)
		}
	}
	if math.IsNaN(s.RestartFail) || s.RestartFail < 0 || s.RestartFail > 1 {
		return fmt.Errorf("clusterfaults: restartfail = %v, want a probability in [0, 1]", s.RestartFail)
	}
	for _, d := range []struct {
		name string
		v    float64
	}{
		{"downtime", s.Downtime}, {"hangdur", s.HangDur},
	} {
		if math.IsNaN(d.v) || math.IsInf(d.v, 0) || d.v < 0 {
			return fmt.Errorf("clusterfaults: %s = %v, want a finite duration >= 0 (or 0 for the default)", d.name, d.v)
		}
	}
	return nil
}

// fields is the spec's key table, in String's key order (seed first).
func (s *Spec) fields() []kvspec.Field {
	return []kvspec.Field{
		{Key: "crash", V: &s.Crash}, {Key: "downtime", V: &s.Downtime},
		{Key: "restartfail", V: &s.RestartFail}, {Key: "hang", V: &s.Hang},
		{Key: "hangdur", V: &s.HangDur}, {Key: "degrade", V: &s.Degrade},
	}
}

// String renders the spec in ParseSpec's key=value format, omitting zero
// fields, with keys in a fixed order.
func (s Spec) String() string { return kvspec.Format(s.Seed, s.fields()) }

// ParseSpec parses the -cfaults flag format: a comma-separated list of
// key=value pairs, e.g. "seed=7,crash=0.05,downtime=2,restartfail=0.3".
// Keys are seed, crash, downtime, restartfail, hang, hangdur, degrade. An
// empty string (and "off") yields the disabled zero Spec.
func ParseSpec(str string) (Spec, error) {
	var s Spec
	if err := kvspec.Parse("clusterfaults", str, &s.Seed, s.fields()); err != nil {
		return Spec{}, err
	}
	return s, s.Validate()
}

// newStream derives worker w's generator for one fault class, so enabling
// one class never shifts another's draw sequence, and worker i's fate never
// depends on how many draws worker j consumed.
func newStream(seed uint64, name string, worker int) *sim.Xorshift {
	return kvspec.Stream(seed, name, uint64(worker)+0x9E37)
}

// Injector draws the fate of one cluster run's workers. Construct with
// NewInjector; a nil *Injector is a valid no-op target for every method.
// An Injector belongs to a single cluster replay and is consulted only
// from its single-threaded composition loop, so it needs no locking.
type Injector struct {
	spec    Spec
	crash   []*sim.Xorshift
	hang    []*sim.Xorshift
	degrade []*sim.Xorshift
	restart []*sim.Xorshift
	counts  map[string]uint64
}

// NewInjector builds an injector for a validated spec and a fixed worker
// count. A disabled spec is legal: every method becomes a pass-through
// (but, unlike a nil injector, still burns PRNG draws so streams stay
// comparable across specs).
func NewInjector(s Spec, workers int) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("clusterfaults: workers = %d", workers)
	}
	if s.Downtime == 0 {
		s.Downtime = DefaultDowntime
	}
	if s.HangDur == 0 {
		s.HangDur = DefaultHangDur
	}
	inj := &Injector{spec: s, counts: make(map[string]uint64)}
	for w := 0; w < workers; w++ {
		inj.crash = append(inj.crash, newStream(s.Seed, "crash", w))
		inj.hang = append(inj.hang, newStream(s.Seed, "hang", w))
		inj.degrade = append(inj.degrade, newStream(s.Seed, "degrade", w))
		inj.restart = append(inj.restart, newStream(s.Seed, "restart", w))
	}
	return inj, nil
}

// MustInjector is NewInjector that panics on an invalid spec.
func MustInjector(s Spec, workers int) *Injector {
	i, err := NewInjector(s, workers)
	if err != nil {
		panic(err)
	}
	return i
}

// Spec returns the injector's (normalized) configuration.
func (i *Injector) Spec() Spec {
	if i == nil {
		return Spec{}
	}
	return i.spec
}

// Probs holds the probability that each rate class fires over one step.
type Probs struct {
	Crash, Hang, Degrade float64
}

// StepProbs returns each rate class's probability over a step of dur
// seconds: an exponential hazard fires with probability 1 - exp(-rate*dur),
// computed as -expm1(-rate*dur), which stays accurate near 0. A replay
// that cycles a measured series can compute these once per series entry
// and pass them to Crash, Hang and Degrade.
func (s Spec) StepProbs(dur float64) Probs {
	return Probs{Crash: prob(s.Crash, dur), Hang: prob(s.Hang, dur), Degrade: prob(s.Degrade, dur)}
}

func prob(rate, dur float64) float64 { return -math.Expm1(-rate * dur) }

// hit draws once from x and reports whether an event of probability p
// fired. The draw is consumed even when p is 0, so per-stream sequences
// stay aligned across specs that differ only in rates.
func hit(x *sim.Xorshift, p float64) bool { return x.Float64() < p }

// Crash reports whether worker w's node is lost during a step whose crash
// probability is p (StepProbs(dur).Crash for a step of dur seconds).
func (i *Injector) Crash(w int, p float64) bool {
	if i == nil {
		return false
	}
	if !hit(i.crash[w], p) {
		return false
	}
	i.counts["crash"]++
	return true
}

// Hang reports whether worker w stalls at the barrier during a step whose
// hang probability is p.
func (i *Injector) Hang(w int, p float64) bool {
	if i == nil {
		return false
	}
	if !hit(i.hang[w], p) {
		return false
	}
	i.counts["hang"]++
	return true
}

// Degrade reports whether worker w's aggressor escalates during a step
// whose degrade probability is p. The caller is responsible for making
// escalation one-shot; the stream keeps drawing either way so sequences
// stay aligned.
func (i *Injector) Degrade(w int, p float64) bool {
	if i == nil {
		return false
	}
	if !hit(i.degrade[w], p) {
		return false
	}
	i.counts["degrade"]++
	return true
}

// RestartFails reports whether worker w's next restart attempt fails.
func (i *Injector) RestartFails(w int) bool {
	if i == nil {
		return false
	}
	if i.restart[w].Float64() >= i.spec.RestartFail {
		return false
	}
	i.counts["restart.fail"]++
	return true
}

// Counts returns how many faults of each class were injected so far, as a
// class → count map with stable keys (crash, hang, degrade, restart.fail).
func (i *Injector) Counts() map[string]uint64 {
	if i == nil {
		return nil
	}
	out := make(map[string]uint64, len(i.counts))
	for k, v := range i.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of injected faults across all classes.
func (i *Injector) Total() uint64 {
	if i == nil {
		return 0
	}
	var t uint64
	for _, v := range i.counts {
		t += v
	}
	return t
}
