// Package faults is a deterministic fault injector for the Kelp control
// loop. The paper deploys Kelp inside the node-level scheduler runtime
// (§IV-D), where the signal path between the PMU and the actuators is
// itself infrastructure that fails: counter reads go stale or return
// garbage, cgroup and MSR writes fail or stick, and control periods get
// missed under host load. The injector perturbs exactly that path — the
// samples controllers read and the writes they issue — so the defensive
// machinery in internal/core and internal/policy (sanitization, read-back
// verification, the degradation watchdog) can be exercised and measured.
//
// Three fault surfaces are modeled:
//
//   - Sensor faults perturb perfmon samples before the controller sees
//     them: whole windows dropped, stale (held) samples replayed, NaN
//     poisoning, counter spikes, and distress-signal flapping.
//   - Actuator faults perturb enforcement writes: a write can fail
//     visibly (an error, like -EIO from sysfs), stick silently (reported
//     success, value unchanged), or apply partially.
//   - Controller stalls skip whole control periods, modeling a runtime
//     that missed its deadline.
//
// All randomness comes from xorshift64* generators (sim.Xorshift) seeded from
// Spec.Seed — no math/rand global state, no wall clock — with one
// independent stream per fault class, so identical (seed, spec) pairs
// replay identical fault sequences regardless of which classes are
// enabled together. A nil *Injector is a valid no-op on every method, so
// instrumented code needs no branching; with no injector attached every
// write passes straight through to the cgroup manager and every sample is
// returned untouched.
package faults

import (
	"fmt"
	"math"
	"sort"

	"kelp/internal/cgroup"
	"kelp/internal/cpu"
	"kelp/internal/events"
	"kelp/internal/kvspec"
	"kelp/internal/perfmon"
	"kelp/internal/sim"
)

// Spec configures the injector: per-period (sensor, stall) and per-write
// (actuator) fault probabilities. The zero value disables every class.
type Spec struct {
	// Seed roots the injector's private PRNG streams.
	Seed uint64
	// Drop is the probability a control period's whole sample window is
	// lost (the PMU read failed).
	Drop float64
	// Stale is the probability the controller re-reads the previous
	// period's sample instead of a fresh one (a held counter snapshot).
	Stale float64
	// NaN is the probability one sampled metric is poisoned to NaN.
	NaN float64
	// Spike is the probability one sampled metric is multiplied by
	// SpikeMag (a glitched counter delta).
	Spike float64
	// SpikeMag is the spike multiplier; 0 selects DefaultSpikeMag.
	SpikeMag float64
	// Flap is the probability the distress duty cycle is replaced by an
	// alternating full-on/full-off value (a flapping distress line).
	Flap float64
	// ActFail is the per-write probability an actuation write returns a
	// visible error without taking effect.
	ActFail float64
	// ActStick is the per-write probability an actuation write reports
	// success but leaves the old value in place (a stuck actuator).
	ActStick float64
	// ActPartial is the per-write probability an actuation write applies
	// only partially (e.g. a cpuset one core short of the request).
	ActPartial float64
	// Stall is the probability a whole control period is skipped.
	Stall float64
}

// DefaultSpikeMag is the spike multiplier used when the spec leaves
// SpikeMag zero: large enough that a spiked reading lands far outside any
// plausible operating range.
const DefaultSpikeMag = 50.0

// Enabled reports whether any fault class has a non-zero probability.
func (s Spec) Enabled() bool {
	return s.Drop > 0 || s.Stale > 0 || s.NaN > 0 || s.Spike > 0 || s.Flap > 0 ||
		s.ActFail > 0 || s.ActStick > 0 || s.ActPartial > 0 || s.Stall > 0
}

// Validate reports whether every probability is in [0, 1] and the spike
// magnitude is sane.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop", s.Drop}, {"stale", s.Stale}, {"nan", s.NaN},
		{"spike", s.Spike}, {"flap", s.Flap},
		{"actfail", s.ActFail}, {"actstick", s.ActStick}, {"actpartial", s.ActPartial},
		{"stall", s.Stall},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s = %v, want a probability in [0, 1]", p.name, p.v)
		}
	}
	if s.SpikeMag != 0 && (math.IsNaN(s.SpikeMag) || s.SpikeMag <= 1) {
		return fmt.Errorf("faults: spikemag = %v, want > 1 (or 0 for the default)", s.SpikeMag)
	}
	return nil
}

// fields is the spec's key table, in String's key order (seed first).
func (s *Spec) fields() []kvspec.Field {
	return []kvspec.Field{
		{Key: "drop", V: &s.Drop}, {Key: "stale", V: &s.Stale}, {Key: "nan", V: &s.NaN},
		{Key: "spike", V: &s.Spike}, {Key: "spikemag", V: &s.SpikeMag}, {Key: "flap", V: &s.Flap},
		{Key: "actfail", V: &s.ActFail}, {Key: "actstick", V: &s.ActStick},
		{Key: "actpartial", V: &s.ActPartial}, {Key: "stall", V: &s.Stall},
	}
}

// String renders the spec in ParseSpec's key=value format, omitting zero
// fields, with keys in a fixed order.
func (s Spec) String() string { return kvspec.Format(s.Seed, s.fields()) }

// ParseSpec parses the -faults flag format: a comma-separated list of
// key=value pairs, e.g. "seed=7,drop=0.2,actstick=0.05". Keys are seed,
// drop, stale, nan, spike, spikemag, flap, actfail, actstick, actpartial,
// stall. An empty string (and "off") yields the disabled zero Spec.
func ParseSpec(str string) (Spec, error) {
	var s Spec
	if err := kvspec.Parse("faults", str, &s.Seed, s.fields()); err != nil {
		return Spec{}, err
	}
	return s, s.Validate()
}

// hit draws once and reports whether an event with probability p fired.
// The draw is consumed even when p is 0 so per-stream sequences stay
// aligned across specs that differ only in probabilities.
func hit(x *sim.Xorshift, p float64) bool {
	return x.Float64() < p
}

// Injector perturbs the sensor and actuator path of one node's
// controllers. Construct with NewInjector; a nil *Injector is a valid
// no-op target for every method. An Injector belongs to a single node and
// is driven only from its single-clocked engine, so it needs no locking.
type Injector struct {
	spec Spec
	rec  *events.Recorder

	stall, drop, stale, nan, spike, flap, act *sim.Xorshift

	// last caches the previous clean sample per controller for stale
	// replay; flapHigh alternates the flap direction; nanMetric cycles
	// which metric gets poisoned.
	last      map[string]perfmon.Sample
	flapHigh  map[string]bool
	nanMetric map[string]int

	counts map[string]uint64
}

// NewInjector builds an injector for a validated spec. A disabled spec is
// legal: every method becomes a pass-through (but, unlike a nil injector,
// still burns PRNG draws so streams stay comparable across specs).
func NewInjector(s Spec) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.SpikeMag == 0 {
		s.SpikeMag = DefaultSpikeMag
	}
	return &Injector{
		spec:      s,
		stall:     kvspec.Stream(s.Seed, "stall"),
		drop:      kvspec.Stream(s.Seed, "drop"),
		stale:     kvspec.Stream(s.Seed, "stale"),
		nan:       kvspec.Stream(s.Seed, "nan"),
		spike:     kvspec.Stream(s.Seed, "spike"),
		flap:      kvspec.Stream(s.Seed, "flap"),
		act:       kvspec.Stream(s.Seed, "act"),
		last:      make(map[string]perfmon.Sample),
		flapHigh:  make(map[string]bool),
		nanMetric: make(map[string]int),
		counts:    make(map[string]uint64),
	}, nil
}

// MustInjector is NewInjector that panics on an invalid spec.
func MustInjector(s Spec) *Injector {
	i, err := NewInjector(s)
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

// SetRecorder attaches the flight recorder injected faults are reported
// through. Nil detaches.
func (i *Injector) SetRecorder(rec *events.Recorder) {
	if i == nil {
		return
	}
	i.rec = rec
}

// Counts returns how many faults of each class were injected so far, as a
// class → count map with stable keys (drop, stale, nan, spike, flap,
// act.fail, act.stick, act.partial, stall).
func (i *Injector) Counts() map[string]uint64 {
	if i == nil {
		return nil
	}
	return copyMap(i.counts)
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

func (i *Injector) count(class string) {
	i.counts[class]++
}

// InjectorState is a snapshot of an injector's mutable state: the position
// of each fault class's stream and the per-controller memory that stale,
// NaN, spike and flap faults keep. Node snapshots carry it, gob-encoded as
// is in session snapshots.
type InjectorState struct {
	// Streams holds the stall, drop, stale, nan, spike, flap and act
	// streams' states, in that order.
	Streams [7]uint64

	Last      map[string]perfmon.Sample
	FlapHigh  map[string]bool
	NaNMetric map[string]int
	Counts    map[string]uint64
}

// streams lists the injector's streams in InjectorState.Streams order.
func (i *Injector) streams() [7]*sim.Xorshift {
	return [7]*sim.Xorshift{i.stall, i.drop, i.stale, i.nan, i.spike, i.flap, i.act}
}

// State captures the injector's state. It shares no memory with the
// injector.
func (i *Injector) State() InjectorState {
	st := InjectorState{
		Last:      make(map[string]perfmon.Sample, len(i.last)),
		FlapHigh:  copyMap(i.flapHigh),
		NaNMetric: copyMap(i.nanMetric),
		Counts:    copyMap(i.counts),
	}
	for k, x := range i.streams() {
		st.Streams[k] = x.State()
	}
	for k, v := range i.last {
		st.Last[k] = cloneSample(v)
	}
	return st
}

// Restore installs a state captured by State on an injector built from
// the same spec. The state stays unshared, so it can be restored again.
func (i *Injector) Restore(st InjectorState) error {
	for k, x := range i.streams() {
		if err := x.SetState(st.Streams[k]); err != nil {
			return fmt.Errorf("faults: restore: %w", err)
		}
	}
	i.last = make(map[string]perfmon.Sample, len(st.Last))
	for k, v := range st.Last {
		i.last[k] = cloneSample(v)
	}
	i.flapHigh, i.nanMetric, i.counts = copyMap(st.FlapHigh), copyMap(st.NaNMetric), copyMap(st.Counts)
	return nil
}

// copyMap returns a new, non-nil copy of m.
func copyMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Stall reports whether the named controller's whole period should be
// skipped, emitting a fault.stall event when it fires.
func (i *Injector) Stall(now float64, ctrl string) bool {
	if i == nil {
		return false
	}
	if !hit(i.stall, i.spec.Stall) {
		return false
	}
	i.count("stall")
	if i.rec.Enabled() {
		i.rec.Emit(now, events.FaultStall, "faults", map[string]any{
			"controller": ctrl,
		})
	}
	return true
}

// sensorMetrics names the metrics NaN/spike faults cycle through.
var sensorMetrics = []string{"socket_bw", "socket_latency", "saturation", "controller_bw"}

// PerturbSample applies the configured sensor fault classes to one
// windowed sample. The second result is true when the whole window was
// dropped; the caller must then discard the sample and treat the period
// as unmeasured. The returned sample may alias s's slices, which NaN and
// spike faults overwrite in place, but never the injector's own cache.
func (i *Injector) PerturbSample(now float64, ctrl string, s perfmon.Sample) (perfmon.Sample, bool) {
	if i == nil {
		return s, false
	}
	if hit(i.drop, i.spec.Drop) {
		i.count("drop")
		if i.rec.Enabled() {
			i.rec.Emit(now, events.FaultSensor, "faults", map[string]any{
				"controller": ctrl, "class": "drop",
			})
		}
		return perfmon.Sample{}, true
	}
	if hit(i.stale, i.spec.Stale) {
		if prev, ok := i.last[ctrl]; ok {
			i.count("stale")
			if i.rec.Enabled() {
				i.rec.Emit(now, events.FaultSensor, "faults", map[string]any{
					"controller": ctrl, "class": "stale",
				})
			}
			return cloneSample(prev), false
		}
	}
	// Cache the clean reading before poisoning, so stale replays are
	// plausible (held) values rather than replayed garbage.
	i.last[ctrl] = cloneSample(s)

	if hit(i.nan, i.spec.NaN) {
		m := sensorMetrics[i.nanMetric[ctrl]%len(sensorMetrics)]
		i.nanMetric[ctrl]++
		poisonMetric(&s, m, math.NaN(), false)
		i.count("nan")
		if i.rec.Enabled() {
			i.rec.Emit(now, events.FaultSensor, "faults", map[string]any{
				"controller": ctrl, "class": "nan", "metric": m,
			})
		}
	}
	if hit(i.spike, i.spec.Spike) {
		m := sensorMetrics[i.nanMetric[ctrl]%len(sensorMetrics)]
		i.nanMetric[ctrl]++
		poisonMetric(&s, m, i.spec.SpikeMag, true)
		i.count("spike")
		if i.rec.Enabled() {
			i.rec.Emit(now, events.FaultSensor, "faults", map[string]any{
				"controller": ctrl, "class": "spike", "metric": m, "magnitude": i.spec.SpikeMag,
			})
		}
	}
	if hit(i.flap, i.spec.Flap) {
		hi := !i.flapHigh[ctrl]
		i.flapHigh[ctrl] = hi
		v := 0.0
		if hi {
			v = 1.0
		}
		for k := range s.SocketSaturation {
			s.SocketSaturation[k] = v
		}
		i.count("flap")
		if i.rec.Enabled() {
			i.rec.Emit(now, events.FaultSensor, "faults", map[string]any{
				"controller": ctrl, "class": "flap", "value": v,
			})
		}
	}
	return s, false
}

// poisonMetric overwrites (mul=false) or scales (mul=true) one metric
// across every socket/controller of the sample.
func poisonMetric(s *perfmon.Sample, metric string, v float64, mul bool) {
	apply := func(dst []float64) {
		for k := range dst {
			if mul {
				dst[k] *= v
			} else {
				dst[k] = v
			}
		}
	}
	switch metric {
	case "socket_bw":
		apply(s.SocketBW)
	case "socket_latency":
		apply(s.SocketLatency)
	case "saturation":
		apply(s.SocketSaturation)
	case "controller_bw":
		for k := range s.ControllerBW {
			apply(s.ControllerBW[k])
		}
	}
}

// cloneSample deep-copies a sample so cached replays cannot alias live
// monitor buffers or earlier perturbations.
func cloneSample(s perfmon.Sample) perfmon.Sample {
	out := s
	out.SocketBW = append([]float64(nil), s.SocketBW...)
	out.SocketOfferedBW = append([]float64(nil), s.SocketOfferedBW...)
	out.SocketLatency = append([]float64(nil), s.SocketLatency...)
	out.SocketSaturation = append([]float64(nil), s.SocketSaturation...)
	out.SocketBackpressure = append([]float64(nil), s.SocketBackpressure...)
	out.ControllerBW = make([][]float64, len(s.ControllerBW))
	for k := range s.ControllerBW {
		out.ControllerBW[k] = append([]float64(nil), s.ControllerBW[k]...)
	}
	out.ControllerLatency = make([][]float64, len(s.ControllerLatency))
	for k := range s.ControllerLatency {
		out.ControllerLatency[k] = append([]float64(nil), s.ControllerLatency[k]...)
	}
	return out
}

// actMode is the fate of one actuator write attempt.
type actMode int

const (
	actOK actMode = iota
	actFail
	actStick
	actPartial
)

// ActRetries bounds the write-verify-retry loop of the gated actuator
// operations: one initial attempt plus two retries.
const ActRetries = 3

// gate draws the fate of one write attempt and emits a fault.actuator
// event when a fault fires. Classes are drawn in fail → stick → partial
// order from a single stream.
func (i *Injector) gate(now float64, op string) actMode {
	r := i.act.Float64()
	switch {
	case r < i.spec.ActFail:
		i.count("act.fail")
		if i.rec.Enabled() {
			i.rec.Emit(now, events.FaultActuator, "faults", map[string]any{
				"op": op, "mode": "fail",
			})
		}
		return actFail
	case r < i.spec.ActFail+i.spec.ActStick:
		i.count("act.stick")
		if i.rec.Enabled() {
			i.rec.Emit(now, events.FaultActuator, "faults", map[string]any{
				"op": op, "mode": "stick",
			})
		}
		return actStick
	case r < i.spec.ActFail+i.spec.ActStick+i.spec.ActPartial:
		i.count("act.partial")
		if i.rec.Enabled() {
			i.rec.Emit(now, events.FaultActuator, "faults", map[string]any{
				"op": op, "mode": "partial",
			})
		}
		return actPartial
	}
	return actOK
}

// SetCPUs routes a cpuset write through the fault gate with read-back
// verification and a bounded retry loop. With a nil injector the write
// passes straight through (no read-back), preserving the fault-free
// behaviour bit for bit.
func (i *Injector) SetCPUs(now float64, cg *cgroup.Manager, group string, set cpu.Set) error {
	if i == nil {
		return cg.SetCPUs(group, set)
	}
	var lastErr error
	for attempt := 0; attempt < ActRetries; attempt++ {
		switch i.gate(now, "cpuset:"+group) {
		case actFail:
			lastErr = fmt.Errorf("faults: injected cpuset write failure for %q", group)
			continue
		case actStick:
			// Reported success, nothing written: only read-back catches it.
		case actPartial:
			partial := set
			if set.Len() > 0 {
				partial = set[:set.Len()-1]
			}
			if err := cg.SetCPUs(group, partial); err != nil {
				return err
			}
		default:
			if err := cg.SetCPUs(group, set); err != nil {
				return err
			}
		}
		g, err := cg.Group(group)
		if err != nil {
			return err
		}
		if equalSets(g.CPUs(), set) {
			return nil
		}
		lastErr = fmt.Errorf("faults: cpuset read-back mismatch for %q: wrote %d cores, read %d",
			group, set.Len(), g.CPUs().Len())
	}
	return fmt.Errorf("faults: cpuset write to %q did not take after %d attempts: %w",
		group, ActRetries, lastErr)
}

// SetPrefetchCount routes a prefetcher-count write through the fault gate
// with read-back verification and bounded retry.
func (i *Injector) SetPrefetchCount(now float64, cg *cgroup.Manager, group string, n int) error {
	if i == nil {
		_, err := cg.SetPrefetchCount(group, n)
		return err
	}
	// SetPrefetchCount clamps to the group's cpuset; verify against the
	// clamped target, not the raw request.
	g, err := cg.Group(group)
	if err != nil {
		return err
	}
	want := n
	if want < 0 {
		want = 0
	}
	if l := g.CPUs().Len(); want > l {
		want = l
	}
	var lastErr error
	for attempt := 0; attempt < ActRetries; attempt++ {
		switch i.gate(now, "prefetch:"+group) {
		case actFail:
			lastErr = fmt.Errorf("faults: injected prefetcher write failure for %q", group)
			continue
		case actStick:
		case actPartial:
			p := want - 1
			if p < 0 {
				p = 0
			}
			if _, err := cg.SetPrefetchCount(group, p); err != nil {
				return err
			}
		default:
			if _, err := cg.SetPrefetchCount(group, n); err != nil {
				return err
			}
		}
		got, err := cg.PrefetchersOn(group)
		if err != nil {
			return err
		}
		if got == want {
			return nil
		}
		lastErr = fmt.Errorf("faults: prefetcher read-back mismatch for %q: wrote %d, read %d",
			group, want, got)
	}
	return fmt.Errorf("faults: prefetcher write to %q did not take after %d attempts: %w",
		group, ActRetries, lastErr)
}

// SetMBA routes an MBA throttle write through the fault gate with
// read-back verification and bounded retry. Partial application is not
// meaningful for a single register write, so partial behaves like stick.
func (i *Injector) SetMBA(now float64, cg *cgroup.Manager, group string, percent int) error {
	if i == nil {
		return cg.SetMBA(group, percent)
	}
	var lastErr error
	for attempt := 0; attempt < ActRetries; attempt++ {
		switch i.gate(now, "mba:"+group) {
		case actFail:
			lastErr = fmt.Errorf("faults: injected MBA write failure for %q", group)
			continue
		case actStick, actPartial:
		default:
			if err := cg.SetMBA(group, percent); err != nil {
				return err
			}
		}
		g, err := cg.Group(group)
		if err != nil {
			return err
		}
		if g.MBAPercent() == percent {
			return nil
		}
		lastErr = fmt.Errorf("faults: MBA read-back mismatch for %q: wrote %d, read %d",
			group, percent, g.MBAPercent())
	}
	return fmt.Errorf("faults: MBA write to %q did not take after %d attempts: %w",
		group, ActRetries, lastErr)
}

func equalSets(a, b cpu.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for k := range as {
		if as[k] != bs[k] {
			return false
		}
	}
	return true
}
