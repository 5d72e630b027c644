package cluster

import (
	"fmt"
	"math"

	"kelp/internal/clusterfaults"
	"kelp/internal/events"
	"kelp/internal/metrics"
)

// oracleWorker is one worker's position in replayOracle.
type oracleWorker struct {
	durs     []float64 // primary step-duration series, cycled
	degDurs  []float64 // escalated-interference series (nil = none)
	idx      int       // executed-step pointer into the active series
	degraded bool      // interference escalated (one-shot)
	resync   bool      // dropped straggler waiting for the next checkpoint
	down     bool      // crashed, waiting on restart
	dead     bool      // declared dead; the cluster shrank around it
	downAt   float64   // when the current outage began
	upAt     float64   // when the next restart attempt happens
	attempts int       // failed restart attempts this outage
}

// stepDur returns the worker's next step duration (degraded series once
// escalation fired) and advances nothing.
func (ws *oracleWorker) stepDur() float64 {
	durs := ws.durs
	if ws.degraded && len(ws.degDurs) > 0 {
		durs = ws.degDurs
	}
	return durs[ws.idx%len(durs)]
}

// replayOracle is the fault replay as it was written before the per-series
// probability tables, the sorted median window and scratch reuse: every
// step turns each hazard rate into a probability on the spot, the straggler
// median copies and sorts the trailing window, and history grows without
// bound. It is the reference replay must match exactly.
func replayOracle(cfg SeriesConfig, sims []*workerSim, inj *clusterfaults.Injector) (*FaultReport, error) {
	rc := cfg.Recovery.withDefaults()
	spec := inj.Spec() // normalized: Downtime/HangDur defaults resolved
	horizon := float64(cfg.Horizon)
	if horizon == 0 {
		horizon = DefaultHorizon
	}

	states := make([]*oracleWorker, len(sims))
	minDur := math.Inf(1)
	for i, s := range sims {
		states[i] = &oracleWorker{durs: s.durs, degDurs: s.degDurs}
		for _, d := range s.durs {
			if d < minDur {
				minDur = d
			}
		}
	}

	rep := &FaultReport{Duration: horizon}
	var (
		t         float64   // cluster clock
		committed int       // global steps currently committed
		ckptStep  int       // committed step of the last checkpoint
		history   []float64 // committed barrier durations (straggler median)
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
	var recoveryTimes []float64

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
		for w, ws := range states {
			if ws.down && (downW < 0 || ws.upAt < states[downW].upAt) {
				downW = w
			}
		}
		if downW >= 0 {
			ws := states[downW]
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
		var stepping []int
		for w, ws := range states {
			if !ws.dead && !ws.resync {
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
		durs := make([]float64, len(stepping))
		var crashed []int
		for k, w := range stepping {
			ws := states[w]
			d := ws.stepDur()
			if inj.Hang(w, spec.StepProbs(d).Hang) {
				d += spec.HangDur
				rep.Hangs++
			}
			if inj.Crash(w, spec.StepProbs(d).Crash) {
				crashed = append(crashed, w)
			}
			if !ws.degraded && inj.Degrade(w, spec.StepProbs(d).Degrade) {
				ws.degraded = true
				rep.Degrades++
				if recording {
					emit(events.WorkerDegrade, map[string]any{"worker": w})
				}
			}
			durs[k] = d
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
			recovering = append(recovering, episode{start: t, target: committed})
			committed = ckptStep
			for _, w := range crashed {
				ws := states[w]
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
		if len(history) >= rc.MedianWindow {
			thresh = rc.StragglerFactor * metrics.Percentile(history[len(history)-rc.MedianWindow:], 50)
		}
		var stragglers []int
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
		participants := stepping
		if action == "drop" {
			participants = participants[:0:0]
			dropped := make(map[int]bool, len(stragglers))
			for _, w := range stragglers {
				dropped[w] = true
				states[w].resync = true
				rep.WastedSteps++
				rep.StragglerDrops++
			}
			barrier = 0
			for k, w := range stepping {
				if dropped[w] {
					continue
				}
				participants = append(participants, w)
				if durs[k] > barrier {
					barrier = durs[k]
				}
			}
		}

		// Phase 6: commit the global step.
		if t+barrier > horizon {
			t = horizon
			break
		}
		t += barrier
		committed++
		history = append(history, barrier)
		for _, w := range participants {
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
			for w, ws := range states {
				if ws.resync {
					ws.resync = false
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
				recoveryTimes = append(recoveryTimes, t-ep.start)
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
	rep.MeanRecoveryTime = metrics.Mean(recoveryTimes)
	rep.Recoveries = len(recoveryTimes)
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
