// Package events is the node's flight recorder: a low-overhead,
// fixed-capacity ring buffer of structured, simulated-timestamped events
// describing every decision the system makes — distress signal transitions
// in the memory fabric, controller actuations with their observed inputs,
// and admission decisions at the agent.
//
// The recorder is passive: emitting an event never feeds back into the
// simulation, so a run with a recorder attached is byte-identical to a run
// without one. Because the simulation is single-clocked and deterministic,
// the event log is fully deterministic too: same seed, same session, same
// events in the same order with the same sequence numbers.
//
// Emitters hold a *Recorder and call Emit; a nil *Recorder is a valid no-op
// target, so instrumented code needs no nil checks. Consumers poll with
// Since (the kelpd GET /events endpoint does exactly this, and the -events
// JSONL flag of kelpbench/kelpsim writes the ring with WriteJSONL after the
// run). A live consumer (the kelpd SSE stream endpoints) polls the same
// way, and Watch tells it when to: Emit signals each subscription's
// one-slot wakeup without blocking, so a slow consumer never stalls the
// emitter.
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Type names one kind of event. The taxonomy is documented in
// docs/OBSERVABILITY.md; every type emitted by the tree is listed here.
type Type string

// The event taxonomy. Sources are the emitting layers: "memsys" (the
// memory fabric), "kelp" / "throttler" / "mba" (the policy controllers),
// "agent" (admission), "faults" (the node fault injector), "cluster" (the
// fault-tolerant lock-step runtime), "fleet" (the fleet runtime's
// placement decisions), and "server" (the kelpd multi-tenant session
// server's control plane: sheds, panics, session lifecycle).
const (
	// DistressAssert fires when a memory controller's utilization first
	// exceeds the distress threshold and the FAST_ASSERTED signal begins
	// pulsing. Fields: socket, controller, utilization, distress, threshold.
	DistressAssert Type = "distress.assert"
	// DistressDeassert fires when the controller's utilization falls back
	// to or below the threshold and the signal goes quiet. Same fields.
	DistressDeassert Type = "distress.deassert"
	// SaturationCross fires when a controller's offered load crosses 100%
	// of capacity in either direction — the point where grants start (or
	// stop) being rationed. Fields: socket, controller, utilization, above.
	SaturationCross Type = "saturation.cross"
	// KelpActuate is one Kelp runtime control period: Algorithm 1's
	// observed inputs and Algorithm 2's chosen actuator values. Fields:
	// action_high, action_low, socket_bw, socket_latency, saturation,
	// hipri_bw, low_cores, low_prefetchers, backfill_cores.
	KelpActuate Type = "kelp.actuate"
	// ThrottlerActuate is one CoreThrottle control period. Fields:
	// socket_bw, latency, cores.
	ThrottlerActuate Type = "throttler.actuate"
	// MBAActuate is one MBA rate-controller period. Fields: socket_bw,
	// latency, percent.
	MBAActuate Type = "mba.actuate"
	// AgentAdmit records a successful task admission. Fields: task, group,
	// ml, and (for accelerated tasks) cores.
	AgentAdmit Type = "agent.admit"
	// AgentReject records a refused admission. Fields: task, ml, reason.
	AgentReject Type = "agent.reject"
	// FaultSensor records an injected sensor fault (internal/faults):
	// a dropped window, a stale replay, NaN poisoning, a counter spike,
	// or distress flapping. Fields: controller, class, and per-class
	// details (metric, magnitude, value).
	FaultSensor Type = "fault.sensor"
	// FaultActuator records an injected actuator fault: one enforcement
	// write that failed, stuck, or applied partially. Fields: op, mode.
	FaultActuator Type = "fault.actuator"
	// FaultStall records an injected controller stall (a missed control
	// period). Fields: controller.
	FaultStall Type = "fault.stall"
	// SensorReject fires when a controller's sample sanitizer refuses a
	// reading (NaN, negative, out of range) and the controller holds its
	// last good decision instead. Fields: reason.
	SensorReject Type = "sensor.reject"
	// ActuateError fires when an enforcement write still fails after
	// read-back verification and bounded retry; the period counts toward
	// the degradation watchdog. Fields: error.
	ActuateError Type = "actuate.error"
	// DegradeEnter fires when a controller's watchdog trips after K
	// consecutive faulted periods and the controller enters fail-safe
	// mode (conservative static allocation, prefetchers off). Fields:
	// controller, consecutive_faults.
	DegradeEnter Type = "degrade.enter"
	// DegradeExit fires when the controller leaves fail-safe mode after
	// J consecutive clean periods. Fields: controller, clean_periods.
	DegradeExit Type = "degrade.exit"
	// WorkerCrash records a cluster worker's node being lost mid-step;
	// the in-flight global step aborts and the cluster rolls back to its
	// last checkpoint. Fields: worker, step, lost_steps, downtime.
	WorkerCrash Type = "worker.crash"
	// WorkerRestart records one restart attempt of a crashed worker.
	// Fields: worker, ok, attempt, and outage (success) or retry_in
	// (failure, the backed-off wait before the next attempt).
	WorkerRestart Type = "worker.restart"
	// WorkerStraggle records a worker exceeding the barrier's straggler
	// threshold. Fields: worker, step_time, threshold, action.
	WorkerStraggle Type = "worker.straggle"
	// WorkerDegrade records a worker's colocated interference escalating
	// mid-run (its step-time series switches to the degraded one).
	// Fields: worker.
	WorkerDegrade Type = "worker.degrade"
	// WorkerDead records a worker declared dead after exhausting restart
	// retries; the cluster shrinks around it. Fields: worker, attempts.
	WorkerDead Type = "worker.dead"
	// CheckpointSave records a periodic cluster checkpoint. Fields: step.
	CheckpointSave Type = "checkpoint.save"
	// CheckpointRestore records a worker rejoining from the last (or, for
	// dropped stragglers, the next) checkpoint. Fields: worker, step.
	CheckpointRestore Type = "checkpoint.restore"
	// BarrierTimeout records a global step exceeding the straggler
	// threshold and the policy's chosen action (wait, drop, failstep).
	// Fields: step, action, threshold, stragglers.
	BarrierTimeout Type = "barrier.timeout"
	// FleetPlace records one placement decision by the fleet runtime:
	// either a lock-step job's workers landing on machines (fields: job,
	// workers, kelp_on, policy) or the batch-task placement summary
	// (fields: batch_tasks, requested, policy).
	FleetPlace Type = "fleet.place"
	// FleetEvict records a batch task evicted from a saturated worker
	// machine by a distress-aware policy. Fields: machine, reason.
	FleetEvict Type = "fleet.evict"
	// FleetRebalance records where an evicted batch task was re-placed.
	// Fields: from, to.
	FleetRebalance Type = "fleet.rebalance"
	// MachineSaturate records a worker machine whose estimated bandwidth
	// load crossed the saturation watermark at placement time. Fields:
	// machine, est_bw, job.
	MachineSaturate Type = "machine.saturate"
	// ServerPanic records a kelpd handler panic converted to a 500 by the
	// recovery middleware. Fields: path, panic.
	ServerPanic Type = "server.panic"
	// ServerShed records a request refused by kelpd's overload protection:
	// rate limiting, a full advance queue, a full session pool, or drain.
	// Fields: path, reason (ratelimit | queue_full | pool_full | draining),
	// client.
	ServerShed Type = "server.shed"
	// ServerWriteError records a response body that failed to encode or
	// send (typically the client hung up mid-response). Fields: path, error.
	ServerWriteError Type = "server.write_error"
	// ServerDrain records the start of graceful drain: admission stops,
	// queued jobs finish or cancel, sessions flush. Fields: sessions.
	ServerDrain Type = "server.drain"
	// SessionCreate records a simulation session joining the pool.
	// Fields: session, policy.
	SessionCreate Type = "session.create"
	// SessionDestroy records a session leaving the pool. Fields: session,
	// reason (api | ttl | drain), jobs_canceled.
	SessionDestroy Type = "session.destroy"
	// SessionPersist records a session snapshot reaching disk (checksummed,
	// atomically renamed). Emitted to the server recorder only — never the
	// session's own flight recorder, which must stay byte-identical to an
	// unpersisted run. Fields: session, seq, sim_time.
	SessionPersist Type = "session.persist"
	// SessionRestore records a session rebuilt from its persist directory at
	// boot. Fields: session, mode (snapshot | replay), seq, replayed (WAL
	// records applied), sim_time.
	SessionRestore Type = "session.restore"
	// ServerRecover records one durability incident: at boot, a torn WAL
	// tail salvaged, a corrupt snapshot/WAL quarantined, or a session
	// skipped because the pool is full; mid-run, a session whose
	// persistence was poisoned by a failed append (its stale files are
	// quarantined so they cannot resurrect at the next boot). The server
	// keeps running; damaged files move to <persist>/quarantine. Fields:
	// session, file, reason, and action (salvaged | quarantined | dropped |
	// skipped).
	ServerRecover Type = "server.recover"
)

// Event is one structured flight-recorder record.
//
// Fields is marshaled by encoding/json with sorted keys, so a recorded
// stream renders to deterministic bytes.
type Event struct {
	// Seq is the recorder-assigned monotonic sequence number, starting at 1.
	Seq uint64 `json:"seq"`
	// Time is the simulated timestamp in seconds.
	Time float64 `json:"time"`
	// Type is the taxonomy entry.
	Type Type `json:"type"`
	// Source is the emitting layer ("memsys", "kelp", "agent", ...).
	Source string `json:"source"`
	// Fields carries the event payload.
	Fields map[string]any `json:"fields,omitempty"`
}

// DefaultCapacity is the ring size used when callers don't care: large
// enough to hold every event of a multi-second default-period session.
const DefaultCapacity = 4096

// Recorder is a fixed-capacity, thread-safe ring buffer of events. The
// zero value is not usable; construct with New. A nil *Recorder is a valid
// emit target (Emit is a no-op), so instrumented code never branches.
type Recorder struct {
	mu      sync.Mutex
	ring    []Event
	start   int    // index of the oldest event
	size    int    // live events in the ring
	nextSeq uint64 // seq the next event will get
	dropped uint64 // events evicted by capacity pressure
	subs    []*Subscription
}

// New returns a recorder holding at most capacity events; when full, the
// oldest events are dropped (and counted in Dropped).
func New(capacity int) (*Recorder, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("events: capacity = %d", capacity)
	}
	return &Recorder{ring: make([]Event, capacity), nextSeq: 1}, nil
}

// MustNew is New that panics on an invalid capacity.
func MustNew(capacity int) *Recorder {
	r, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Enabled reports whether emitted events are actually recorded. It is
// nil-safe — a nil *Recorder reports false — so hot-path emitters can guard
// the construction of a field map behind one predictable branch:
//
//	if rec.Enabled() {
//		rec.Emit(now, typ, src, map[string]any{...})
//	}
//
// Emit itself is already a no-op on a nil recorder; Enabled exists so that
// instrumentation costs nothing (zero allocations) when no recorder is
// attached, not merely "one wasted map per event".
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event, stamping its sequence number, and wakes every
// subscription. Calling Emit on a nil recorder is a no-op. The wakeup never
// blocks: a subscription with a signal already pending keeps that one (see
// Subscription).
func (r *Recorder) Emit(time float64, t Type, source string, fields map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := Event{Seq: r.nextSeq, Time: time, Type: t, Source: source, Fields: fields}
	r.nextSeq++
	if r.size == len(r.ring) {
		r.start = (r.start + 1) % len(r.ring)
		r.size--
		r.dropped++
	}
	r.ring[(r.start+r.size)%len(r.ring)] = e
	r.size++
	for _, sub := range r.subs {
		sub.notify()
	}
}

// Len returns the number of events currently buffered.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Dropped returns how many events were evicted by capacity pressure.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns a copy of the buffered events in sequence order.
func (r *Recorder) Events() []Event {
	return r.Since(0)
}

// Since returns buffered events with Seq > after, oldest first, optionally
// restricted to the listed types. Since(0) returns everything buffered.
func (r *Recorder) Since(after uint64, types ...Type) []Event {
	return r.SinceLimit(after, 0, types...)
}

// SinceLimit is Since with a result cap: at most limit matching events are
// returned (limit <= 0 means unlimited). The scan stops as soon as the cap
// is reached, so a poll with a small limit never copies the whole backlog —
// this is what the kelpd /events?limit= endpoint calls.
func (r *Recorder) SinceLimit(after uint64, limit int, types ...Type) []Event {
	if r == nil {
		return nil
	}
	var want map[Type]bool
	if len(types) > 0 {
		want = make(map[Type]bool, len(types))
		for _, t := range types {
			want[t] = true
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	i := 0
	if r.size > 0 {
		// The ring is normally seq-contiguous (Emit assigns consecutive
		// seqs and evicts from the front), so the cursor position can be
		// computed directly instead of scanning past every stale entry —
		// this is what keeps per-event stream wakeups O(result), not
		// O(capacity). Restore can in principle install an arbitrary
		// event list, so contiguity is verified in O(1) first.
		oldest := r.ring[r.start].Seq
		newest := r.ring[(r.start+r.size-1)%len(r.ring)].Seq
		if newest-oldest == uint64(r.size-1) && after >= oldest {
			if after >= newest {
				// Cursor at or past the newest event (uint64 "since"
				// cursors can be arbitrarily large): nothing to return.
				// Computed before the subtraction below so it cannot
				// overflow int.
				i = r.size
			} else {
				i = int(after - oldest + 1)
			}
		}
	}
	for ; i < r.size; i++ {
		if limit > 0 && len(out) >= limit {
			break
		}
		e := r.ring[(r.start+i)%len(r.ring)]
		if e.Seq <= after {
			continue
		}
		if want != nil && !want[e.Type] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// WriteJSONL writes events as one JSON object per line — the -events
// format of kelpbench and kelpsim. Map keys are sorted by encoding/json,
// so equal event streams produce equal bytes.
func WriteJSONL(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range evs {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
