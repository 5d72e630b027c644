package cluster

// The fault-tolerant lock-step runtime. The per-worker simulations
// (cluster.go) measure each worker's step-time series; this file replays
// the lock-step schedule against internal/clusterfaults' injected
// failures and the configured recovery machinery:
//
//   - Checkpointing: every CheckpointEvery committed global steps the
//     cluster saves a checkpoint (costing CheckpointCost seconds). A
//     worker crash aborts the in-flight step and rolls the whole cluster
//     back to the last checkpoint — synchronous training shares one model
//     state, so everyone's progress since the save is rework.
//   - Barrier timeout + straggler policy: when a worker's step exceeds
//     StragglerFactor times the trailing-window median global step time,
//     the barrier times out and the policy decides: wait it out, drop the
//     straggler and resync it from the next checkpoint, or fail the step
//     and retry.
//   - Restart retry with backoff: a crashed worker restarts after its
//     downtime; each failed attempt doubles (RestartBackoff) the wait,
//     and after MaxRestarts failures the worker is declared dead and the
//     cluster shrinks around it.
//
// The replay is pure arithmetic over the measured series — deterministic,
// wall-clock-free, and cheap — so fault regimes can be swept without
// re-simulating nodes.

import (
	"fmt"
	"math"

	"kelp/internal/clusterfaults"
	"kelp/internal/events"
	"kelp/internal/metrics"
)

// StragglerPolicy selects what the barrier does when a worker exceeds the
// straggler threshold.
type StragglerPolicy string

// The straggler policies.
const (
	// WaitForStraggler waits the straggler out: the global step stretches
	// to the slowest worker (the default — plain synchronous training).
	WaitForStraggler StragglerPolicy = "wait"
	// DropStraggler commits the step without the straggler, which
	// resyncs from the next checkpoint (backup-worker style semantics).
	DropStraggler StragglerPolicy = "drop"
	// FailStep abandons the global step entirely and retries it.
	FailStep StragglerPolicy = "failstep"
)

// Recovery defaults, selected by zero fields of RecoveryConfig.
const (
	// DefaultCheckpointEvery is the checkpoint cadence in global steps.
	DefaultCheckpointEvery = 25
	// DefaultCheckpointCost is the pause a checkpoint save costs, seconds.
	DefaultCheckpointCost = 0.02
	// DefaultStragglerFactor is the barrier timeout as a multiple of the
	// trailing-window median global step time.
	DefaultStragglerFactor = 4.0
	// DefaultMedianWindow is the trailing window (in committed steps) the
	// straggler threshold derives from.
	DefaultMedianWindow = 16
	// DefaultMaxRestarts bounds restart attempts before a worker is
	// declared dead.
	DefaultMaxRestarts = 3
	// DefaultRestartBackoff multiplies the downtime after each failed
	// restart attempt.
	DefaultRestartBackoff = 2.0
	// DefaultHorizon is the simulated cluster wall-clock the replay
	// covers, seconds.
	DefaultHorizon = 60.0
)

// RecoveryConfig parameterizes the defensive layer. The zero value
// selects every default (DefaultRecovery).
type RecoveryConfig struct {
	// CheckpointEvery is the checkpoint cadence in committed global
	// steps; 0 selects DefaultCheckpointEvery.
	CheckpointEvery int
	// CheckpointCost is the pause each checkpoint save costs, seconds;
	// 0 selects DefaultCheckpointCost (use a tiny value for ~free saves).
	CheckpointCost float64
	// Straggler is the barrier-timeout policy; "" selects
	// WaitForStraggler.
	Straggler StragglerPolicy
	// StragglerFactor is the timeout threshold as a multiple of the
	// trailing-window median step time; 0 selects DefaultStragglerFactor.
	StragglerFactor float64
	// MedianWindow is how many committed steps the trailing median spans;
	// 0 selects DefaultMedianWindow.
	MedianWindow int
	// MaxRestarts bounds restart attempts per outage before the worker is
	// declared dead; 0 selects DefaultMaxRestarts.
	MaxRestarts int
	// RestartBackoff multiplies the downtime after each failed restart;
	// 0 selects DefaultRestartBackoff.
	RestartBackoff float64
}

// DefaultRecovery returns the defaults the zero RecoveryConfig selects.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{
		CheckpointEvery: DefaultCheckpointEvery,
		CheckpointCost:  DefaultCheckpointCost,
		Straggler:       WaitForStraggler,
		StragglerFactor: DefaultStragglerFactor,
		MedianWindow:    DefaultMedianWindow,
		MaxRestarts:     DefaultMaxRestarts,
		RestartBackoff:  DefaultRestartBackoff,
	}
}

// withDefaults resolves zero fields to their defaults.
func (rc RecoveryConfig) withDefaults() RecoveryConfig {
	def := DefaultRecovery()
	if rc.CheckpointEvery == 0 {
		rc.CheckpointEvery = def.CheckpointEvery
	}
	if rc.CheckpointCost == 0 {
		rc.CheckpointCost = def.CheckpointCost
	}
	if rc.Straggler == "" {
		rc.Straggler = def.Straggler
	}
	if rc.StragglerFactor == 0 {
		rc.StragglerFactor = def.StragglerFactor
	}
	if rc.MedianWindow == 0 {
		rc.MedianWindow = def.MedianWindow
	}
	if rc.MaxRestarts == 0 {
		rc.MaxRestarts = def.MaxRestarts
	}
	if rc.RestartBackoff == 0 {
		rc.RestartBackoff = def.RestartBackoff
	}
	return rc
}

// Validate reports whether the configuration (zero fields meaning
// defaults) is usable.
func (rc RecoveryConfig) Validate() error {
	if rc.CheckpointEvery < 0 {
		return fmt.Errorf("cluster: checkpoint every %d steps, want >= 1 (or 0 for the default)", rc.CheckpointEvery)
	}
	if math.IsNaN(rc.CheckpointCost) || math.IsInf(rc.CheckpointCost, 0) || rc.CheckpointCost < 0 {
		return fmt.Errorf("cluster: checkpoint cost = %v, want a finite duration >= 0", rc.CheckpointCost)
	}
	switch rc.Straggler {
	case "", WaitForStraggler, DropStraggler, FailStep:
	default:
		return fmt.Errorf("cluster: unknown straggler policy %q (want wait, drop or failstep)", rc.Straggler)
	}
	if math.IsNaN(rc.StragglerFactor) || rc.StragglerFactor < 0 || (rc.StragglerFactor > 0 && rc.StragglerFactor <= 1) {
		return fmt.Errorf("cluster: straggler factor = %v, want > 1 (or 0 for the default)", rc.StragglerFactor)
	}
	if rc.MedianWindow < 0 {
		return fmt.Errorf("cluster: median window = %d, want >= 1 (or 0 for the default)", rc.MedianWindow)
	}
	if rc.MaxRestarts < 0 {
		return fmt.Errorf("cluster: max restarts = %d, want >= 1 (or 0 for the default)", rc.MaxRestarts)
	}
	if math.IsNaN(rc.RestartBackoff) || rc.RestartBackoff < 0 || (rc.RestartBackoff > 0 && rc.RestartBackoff < 1) {
		return fmt.Errorf("cluster: restart backoff = %v, want >= 1 (or 0 for the default)", rc.RestartBackoff)
	}
	return nil
}

// FaultReport is the fault-tolerant runtime's outcome: the goodput view
// of the cluster run — what fleet-scale work actually survives once
// failures, rework and downtime are subtracted.
type FaultReport struct {
	// Duration is the simulated cluster wall-clock covered, seconds.
	Duration float64
	// UsefulSteps is the number of committed global steps that survived
	// to the end (never rolled back).
	UsefulSteps int
	// WastedSteps counts discarded work: steps rolled back by a crash,
	// aborted in-flight steps, failed barrier retries and dropped
	// straggler steps.
	WastedSteps int
	// WastedStepFraction is WastedSteps / (UsefulSteps + WastedSteps).
	WastedStepFraction float64
	// Goodput is UsefulSteps per second of Duration — the fleet metric
	// (useful work net of rework and downtime).
	Goodput float64
	// Downtime is wall-clock spent idle waiting for crashed workers to
	// restart (rework time is counted by WastedSteps instead).
	Downtime float64
	// Availability is 1 - Downtime/Duration.
	Availability float64
	// MeanRecoveryTime is the average wall-clock from a crash to the
	// cluster re-reaching its pre-crash committed step (downtime plus
	// rework); 0 when no crash recovery completed within the horizon.
	MeanRecoveryTime float64
	// Recoveries counts crash recoveries completed within the horizon.
	Recoveries int
	// Checkpoints / Restores count checkpoint.save and
	// checkpoint.restore transitions.
	Checkpoints, Restores int
	// Crashes, Hangs, Degrades count injected faults that fired.
	Crashes, Hangs, Degrades int
	// Restarts / FailedRestarts count successful and failed restart
	// attempts.
	Restarts, FailedRestarts int
	// Timeouts counts barrier timeouts; StragglerDrops and FailedSteps
	// count the drop/failstep policy outcomes.
	Timeouts, StragglerDrops, FailedSteps int
	// DeadWorkers counts workers declared dead after exhausting restart
	// retries (the cluster shrinks around them).
	DeadWorkers int
}

// workerState is one worker's position in the fault-tolerant replay.
type workerState struct {
	steps    []seriesStep // primary step series, cycled
	degSteps []seriesStep // escalated-interference series (empty = none)
	idx      int          // executed-step pointer into the active series
	degraded bool         // interference escalated (one-shot)
	resync   bool         // dropped straggler waiting for the next checkpoint
	down     bool         // crashed, waiting on restart
	dead     bool         // declared dead; the cluster shrank around it
	downAt   float64      // when the current outage began
	upAt     float64      // when the next restart attempt happens
	attempts int          // failed restart attempts this outage
}

// seriesStep is one entry of a measured step-duration series and each
// fault class's probability over it. The replay cycles a short series for
// thousands of steps, so the probabilities are computed once per entry
// when it starts instead of once per worker-step.
type seriesStep struct {
	dur float64
	p   clusterfaults.Probs
}

// stepTable pairs each duration of a series with its fault probabilities.
func stepTable(spec clusterfaults.Spec, durs []float64) []seriesStep {
	tab := make([]seriesStep, len(durs))
	for i, d := range durs {
		tab[i] = seriesStep{dur: d, p: spec.StepProbs(d)}
	}
	return tab
}

// step returns the worker's next series entry (degraded series once
// escalation fired) and advances nothing.
func (ws *workerState) step() seriesStep {
	steps := ws.steps
	if ws.degraded && len(ws.degSteps) > 0 {
		steps = ws.degSteps
	}
	return steps[ws.idx%len(steps)]
}

// replay runs the fault-tolerant lock-step schedule to the horizon,
// drawing every fault from inj. Its cost per worker-step is a table read
// and up to three stream draws; a committed step adds one sorted insert
// and delete to the median window. It allocates nothing per step unless a
// recorder is attached.
func replay(cfg SeriesConfig, sims []*workerSim, inj *clusterfaults.Injector) (*FaultReport, error) {
	rc := cfg.Recovery.withDefaults()
	spec := inj.Spec() // normalized: Downtime/HangDur defaults resolved
	horizon := float64(cfg.Horizon)
	if horizon == 0 {
		horizon = DefaultHorizon
	}

	workers := len(sims)
	states := make([]workerState, workers)
	minDur := math.Inf(1)
	for i, s := range sims {
		states[i] = workerState{steps: stepTable(spec, s.durs), degSteps: stepTable(spec, s.degDurs)}
		for _, d := range s.durs {
			if d < minDur {
				minDur = d
			}
		}
	}

	rep := &FaultReport{Duration: horizon}
	var (
		t           float64 // cluster clock
		committed   int     // global steps currently committed
		ckptStep    int     // committed step of the last checkpoint
		recoverySum float64 // completed recovery times, summed in close order
		recoveries  int
	)
	// window holds the last MedianWindow committed barrier durations, the
	// straggler threshold's median.
	window := metrics.NewWindow(rc.MedianWindow)
	// Per-attempt scratch, reused by every iteration. durs parallels
	// stepping; dropped is indexed by worker and cleared after each drop.
	var (
		stepping     = make([]int, 0, workers)
		durs         = make([]float64, 0, workers)
		crashed      = make([]int, 0, workers)
		stragglers   = make([]int, 0, workers)
		participants = make([]int, 0, workers)
		dropped      = make([]bool, workers)
	)
	// recording gates field-map construction at every emit site: with no
	// recorder attached the fault path must not build throwaway maps.
	recording := cfg.Events.Enabled()
	emit := func(typ events.Type, fields map[string]any) {
		cfg.Events.Emit(t, typ, "cluster", fields)
	}
	// A recovery episode opens at crash detection and closes when the
	// cluster re-reaches the committed step it lost.
	type episode struct {
		start  float64
		target int
	}
	var recovering []episode

	// Strictly-positive step durations, downtimes and backoffs guarantee
	// progress; the budget is a defensive backstop, generous enough for
	// any plausible series.
	maxIters := 1 << 16
	if minDur > 0 && !math.IsInf(minDur, 1) {
		if n := 8 * int(horizon/minDur); n > maxIters {
			maxIters = n
		}
	}

	for iter := 0; t < horizon; iter++ {
		if iter > maxIters {
			return nil, fmt.Errorf("cluster: fault replay exceeded its iteration budget (%d)", maxIters)
		}

		// Phase 1: if any worker is down, the cluster idles until the
		// earliest restart attempt resolves.
		downW := -1
		for w := range states {
			if states[w].down && (downW < 0 || states[w].upAt < states[downW].upAt) {
				downW = w
			}
		}
		if downW >= 0 {
			ws := &states[downW]
			if ws.upAt >= horizon {
				rep.Downtime += horizon - t
				t = horizon
				break
			}
			rep.Downtime += ws.upAt - t
			t = ws.upAt
			if inj.RestartFails(downW) {
				ws.attempts++
				rep.FailedRestarts++
				if ws.attempts >= rc.MaxRestarts {
					ws.down = false
					ws.dead = true
					rep.DeadWorkers++
					if recording {
						emit(events.WorkerDead, map[string]any{
							"worker": downW, "attempts": ws.attempts,
						})
					}
				} else {
					backoff := spec.Downtime * math.Pow(rc.RestartBackoff, float64(ws.attempts))
					ws.upAt = t + backoff
					if recording {
						emit(events.WorkerRestart, map[string]any{
							"worker": downW, "ok": false, "attempt": ws.attempts, "retry_in": backoff,
						})
					}
				}
			} else {
				ws.down = false
				rep.Restarts++
				if recording {
					emit(events.WorkerRestart, map[string]any{
						"worker": downW, "ok": true, "attempt": ws.attempts + 1,
						"outage": t - ws.downAt,
					})
				}
				rep.Restores++
				if recording {
					emit(events.CheckpointRestore, map[string]any{
						"worker": downW, "step": ckptStep,
					})
				}
			}
			continue
		}

		// Phase 2: the stepping set — alive workers not resyncing.
		stepping = stepping[:0]
		for w := range states {
			if !states[w].dead && !states[w].resync {
				stepping = append(stepping, w)
			}
		}
		if len(stepping) == 0 {
			// Every worker is dead: the service is gone for the rest of
			// the horizon. (Resyncing workers cannot be the cause — a
			// straggler is only dropped when a faster peer remains.)
			rep.Downtime += horizon - t
			t = horizon
			break
		}

		// Phase 3: draw this attempt's fates (hang stretches the step,
		// crash aborts it, degrade escalates the series from next step).
		// A hung step's duration is off the series, so its crash and
		// degrade probabilities are computed on the spot.
		durs = durs[:0]
		crashed = crashed[:0]
		for _, w := range stepping {
			ws := &states[w]
			st := ws.step()
			d, p := st.dur, st.p
			if inj.Hang(w, p.Hang) {
				d += spec.HangDur
				p = spec.StepProbs(d)
				rep.Hangs++
			}
			if inj.Crash(w, p.Crash) {
				crashed = append(crashed, w)
			}
			if !ws.degraded && inj.Degrade(w, p.Degrade) {
				ws.degraded = true
				rep.Degrades++
				if recording {
					emit(events.WorkerDegrade, map[string]any{"worker": w})
				}
			}
			durs = append(durs, d)
		}
		barrier := 0.0
		for _, d := range durs {
			if d > barrier {
				barrier = d
			}
		}

		// Phase 4: crashes abort the step and roll the cluster back.
		if len(crashed) > 0 {
			if t+barrier > horizon {
				t = horizon
				break
			}
			t += barrier
			lost := committed - ckptStep
			rep.WastedSteps += lost + 1
			rep.Crashes += len(crashed)
			if recovering == nil {
				// Episodes nest only while a crash lands before the cluster
				// re-reaches an earlier crash's lost step; room for a few
				// keeps a longer horizon from reallocating.
				recovering = make([]episode, 0, 4)
			}
			recovering = append(recovering, episode{start: t, target: committed})
			committed = ckptStep
			for _, w := range crashed {
				ws := &states[w]
				ws.down = true
				ws.attempts = 0
				ws.downAt = t
				ws.upAt = t + spec.Downtime
				if recording {
					emit(events.WorkerCrash, map[string]any{
						"worker": w, "step": ckptStep + lost, "lost_steps": lost,
						"downtime": spec.Downtime,
					})
				}
			}
			continue
		}

		// Phase 5: barrier timeout and the straggler policy.
		var thresh float64
		if window.Len() >= rc.MedianWindow {
			thresh = rc.StragglerFactor * window.Percentile(50)
		}
		stragglers = stragglers[:0]
		if thresh > 0 {
			for k, w := range stepping {
				if durs[k] > thresh {
					stragglers = append(stragglers, w)
				}
			}
		}
		action := ""
		switch {
		case len(stragglers) == 0:
		case rc.Straggler == FailStep:
			action = "failstep"
		case rc.Straggler == DropStraggler && len(stragglers) < len(stepping):
			action = "drop"
		default:
			// Wait policy, or drop with nobody left to commit.
			action = "wait"
		}
		if action != "" {
			rep.Timeouts++
			if recording {
				emit(events.BarrierTimeout, map[string]any{
					"step": committed, "action": action,
					"threshold": thresh, "stragglers": len(stragglers),
				})
				for _, w := range stragglers {
					var d float64
					for k, sw := range stepping {
						if sw == w {
							d = durs[k]
						}
					}
					emit(events.WorkerStraggle, map[string]any{
						"worker": w, "step_time": d, "threshold": thresh, "action": action,
					})
				}
			}
		}
		if action == "failstep" {
			if t+barrier > horizon {
				t = horizon
				break
			}
			t += barrier
			rep.WastedSteps++
			rep.FailedSteps++
			for _, w := range stepping {
				states[w].idx++ // work executed, result discarded
			}
			continue
		}
		committers := stepping
		if action == "drop" {
			for _, w := range stragglers {
				dropped[w] = true
				states[w].resync = true
				rep.WastedSteps++
				rep.StragglerDrops++
			}
			participants = participants[:0]
			barrier = 0
			for k, w := range stepping {
				if dropped[w] {
					dropped[w] = false
					continue
				}
				participants = append(participants, w)
				if durs[k] > barrier {
					barrier = durs[k]
				}
			}
			committers = participants
		}

		// Phase 6: commit the global step.
		if t+barrier > horizon {
			t = horizon
			break
		}
		t += barrier
		committed++
		window.Push(barrier)
		for _, w := range committers {
			states[w].idx++
		}

		// Phase 7: checkpoint; resyncing stragglers rejoin here.
		if committed-ckptStep >= rc.CheckpointEvery {
			t += rc.CheckpointCost
			ckptStep = committed
			rep.Checkpoints++
			if recording {
				emit(events.CheckpointSave, map[string]any{"step": committed})
			}
			for w := range states {
				if states[w].resync {
					states[w].resync = false
					rep.Restores++
					if recording {
						emit(events.CheckpointRestore, map[string]any{
							"worker": w, "step": committed,
						})
					}
				}
			}
		}

		// Close recovery episodes whose lost progress is restored.
		kept := recovering[:0]
		for _, ep := range recovering {
			if committed >= ep.target {
				recoverySum += t - ep.start
				recoveries++
			} else {
				kept = append(kept, ep)
			}
		}
		recovering = kept
	}

	rep.UsefulSteps = committed
	if total := rep.UsefulSteps + rep.WastedSteps; total > 0 {
		rep.WastedStepFraction = float64(rep.WastedSteps) / float64(total)
	}
	rep.Goodput = float64(rep.UsefulSteps) / horizon
	rep.Availability = 1 - rep.Downtime/horizon
	if recoveries > 0 {
		// metrics.Mean's sum, accumulated as the episodes closed.
		rep.MeanRecoveryTime = recoverySum / float64(recoveries)
	}
	rep.Recoveries = recoveries
	// A cluster whose every worker ended the horizon dead did not survive:
	// nobody remains to serve the model, so interim progress is moot. The
	// report says so plainly — Goodput 0, Availability 0 — instead of the
	// misleading partial fractions the loop accumulated. Fleet aggregation
	// (internal/fleet) depends on this: an all-workers-dead machine's job
	// must contribute zero productivity goodput, not a divide-by-zero or a
	// rate measured over a service that no longer exists.
	if rep.DeadWorkers >= len(states) {
		rep.Goodput = 0
		rep.Availability = 0
	}
	return rep, nil
}
