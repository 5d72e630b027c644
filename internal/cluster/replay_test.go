package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"kelp/internal/clusterfaults"
	"kelp/internal/events"
	"kelp/internal/sim"
)

// variedMembers builds n members whose step series differ in length
// (steps+3i timestamps) and jitter around a per-member base duration, with
// an occasional 6x step so straggler thresholds trip, and repeated
// durations so the median window holds ties. Every member carries a
// degraded series (1.4x slower, a different length again).
func variedMembers(n, steps int, seed uint64) []MemberSeries {
	x := sim.NewXorshift(seed | 1)
	series := func(k int, base float64) []float64 {
		times := make([]float64, k)
		at := 0.0
		for i := range times {
			d := base
			switch r := x.Float64(); {
			case r < 0.05:
				d *= 6
			case r < 0.5:
				d *= 1 + 0.25*x.Float64()
			}
			at += d
			times[i] = at
		}
		return times
	}
	members := make([]MemberSeries, n)
	for i := range members {
		base := 0.05 + 0.01*float64(i%3)
		members[i] = MemberSeries{
			StepsPerSec:       1 / base,
			StepTimes:         series(steps+3*i, base),
			DegradedStepTimes: series(steps/2+2+i, 1.4*base),
		}
	}
	return members
}

// replayOutcome is everything a replay exposes: its report or error, the
// injector's fault counts and the recorder's event stream as JSONL.
type replayOutcome struct {
	rep     *FaultReport
	err     string
	counts  map[string]uint64
	events  []byte
	dropped uint64
}

// replayWith runs one replay implementation over members with a fresh
// injector and recorder.
func replayWith(t testing.TB, run func(SeriesConfig, []*workerSim, *clusterfaults.Injector) (*FaultReport, error),
	cfg SeriesConfig, members []MemberSeries) replayOutcome {
	t.Helper()
	sims, err := memberSims(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := clusterfaults.NewInjector(cfg.Faults, len(sims))
	if err != nil {
		t.Fatal(err)
	}
	rec := events.MustNew(1 << 12)
	cfg.Events = rec
	var out replayOutcome
	out.rep, err = run(cfg, sims, inj)
	if err != nil {
		out.err = err.Error()
	}
	out.counts = inj.Counts()
	var buf bytes.Buffer
	if err := events.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	out.events = buf.Bytes()
	out.dropped = rec.Dropped()
	return out
}

// checkReplayMatchesOracle fails t unless replay and replayOracle agree on
// the report, the fault counts and the event bytes. It returns replay's
// report (nil on error).
func checkReplayMatchesOracle(t testing.TB, cfg SeriesConfig, members []MemberSeries) *FaultReport {
	t.Helper()
	got := replayWith(t, replay, cfg, members)
	want := replayWith(t, replayOracle, cfg, members)
	if got.err != want.err {
		t.Fatalf("error %q, oracle %q", got.err, want.err)
	}
	if !reflect.DeepEqual(got.rep, want.rep) {
		t.Fatalf("report diverged from the oracle:\n got %+v\nwant %+v", got.rep, want.rep)
	}
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Fatalf("injector counts %v, oracle %v", got.counts, want.counts)
	}
	if !bytes.Equal(got.events, want.events) || got.dropped != want.dropped {
		t.Fatalf("event stream diverged from the oracle (%d vs %d bytes, %d vs %d dropped)",
			len(got.events), len(want.events), got.dropped, want.dropped)
	}
	return got.rep
}

// TestReplayMatchesOracle pins the table-driven replay to the per-step
// reference across the straggler policies, degrade on and off, flaky
// restarts, median windows of 1, the default and more than the step
// count, and 1, 2 and 8 workers with series of different lengths. The
// hang rate is high enough that hung steps, whose probabilities are
// computed off the table, occur in every regime. CI runs it under -race
// by name.
func TestReplayMatchesOracle(t *testing.T) {
	var seen FaultReport
	for _, policy := range []StragglerPolicy{WaitForStraggler, DropStraggler, FailStep} {
		for _, degrade := range []float64{0, 0.05} {
			for _, restartFail := range []float64{0, 0.5} {
				for _, window := range []int{1, 16, 100000} {
					for _, workers := range []int{1, 2, 8} {
						name := fmt.Sprintf("%s/degrade=%v/restartfail=%v/window=%d/workers=%d",
							policy, degrade, restartFail, window, workers)
						t.Run(name, func(t *testing.T) {
							cfg := SeriesConfig{
								Faults: clusterfaults.Spec{
									Seed: uint64(7 + workers), Crash: 0.05, Downtime: 0.4,
									RestartFail: restartFail, Hang: 0.6, HangDur: 0.3, Degrade: degrade,
								},
								Recovery: RecoveryConfig{
									CheckpointEvery: 10, Straggler: policy, StragglerFactor: 2.5,
									MedianWindow: window, MaxRestarts: 2,
								},
								Horizon: 60 * sim.Second,
							}
							rep := checkReplayMatchesOracle(t, cfg, variedMembers(workers, 40, uint64(workers)))
							if rep.Hangs == 0 {
								t.Errorf("no hung steps: %+v", rep)
							}
							seen.Crashes += rep.Crashes
							seen.Degrades += rep.Degrades
							seen.FailedRestarts += rep.FailedRestarts
							seen.DeadWorkers += rep.DeadWorkers
							seen.Timeouts += rep.Timeouts
							seen.StragglerDrops += rep.StragglerDrops
							seen.FailedSteps += rep.FailedSteps
							seen.Recoveries += rep.Recoveries
						})
					}
				}
			}
		}
	}
	// The grid must reach every path the oracle comparison guards.
	for name, n := range map[string]int{
		"crashes": seen.Crashes, "degrades": seen.Degrades, "failed restarts": seen.FailedRestarts,
		"dead workers": seen.DeadWorkers, "timeouts": seen.Timeouts, "drops": seen.StragglerDrops,
		"failed steps": seen.FailedSteps, "recoveries": seen.Recoveries,
	} {
		if n == 0 {
			t.Errorf("grid never produced %s", name)
		}
	}
}

// FuzzReplay compares replay with its oracle over fuzzed fault specs,
// recovery configs and member series.
func FuzzReplay(f *testing.F) {
	f.Add(uint64(1), 0.05, 0.6, 0.05, 0.5, uint8(0), uint8(10), uint8(16), uint8(2), uint8(4), uint8(40), 30.0)
	f.Add(uint64(9), 0.5, 0.0, 0.0, 1.0, uint8(1), uint8(3), uint8(1), uint8(1), uint8(8), uint8(3), 10.0)
	f.Add(uint64(3), 0.0, 2.0, 0.2, 0.0, uint8(2), uint8(1), uint8(200), uint8(5), uint8(1), uint8(80), 45.0)
	f.Fuzz(func(t *testing.T, seed uint64, crash, hang, degrade, restartFail float64,
		policy, ckpt, window, maxRestarts, workers, steps uint8, horizon float64) {
		for _, v := range []float64{crash, hang, degrade, restartFail, horizon} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		cfg := SeriesConfig{
			Faults: clusterfaults.Spec{
				Seed:        seed,
				Crash:       math.Mod(math.Abs(crash), 2),
				Downtime:    0.2 + float64(seed%5)*0.3,
				RestartFail: math.Mod(math.Abs(restartFail), 1),
				Hang:        math.Mod(math.Abs(hang), 5),
				HangDur:     0.1 + float64(seed%7)*0.2,
				Degrade:     math.Mod(math.Abs(degrade), 1),
			},
			Recovery: RecoveryConfig{
				CheckpointEvery: int(ckpt % 40),
				Straggler:       []StragglerPolicy{WaitForStraggler, DropStraggler, FailStep}[policy%3],
				StragglerFactor: 1.5 + float64(policy%4),
				MedianWindow:    int(window),
				MaxRestarts:     int(maxRestarts % 6),
			},
			Horizon: 1 + math.Mod(math.Abs(horizon), 40),
		}
		if !cfg.Faults.Enabled() {
			cfg.Faults.Crash = 0.01
		}
		members := variedMembers(1+int(workers%8), 2+int(steps%100), seed)
		checkReplayMatchesOracle(t, cfg, members)
	})
}

// RunSeries allocates per replay, not per step: a horizon ten times longer
// replays ten times the steps with no more allocations.
func TestReplayAllocsIndependentOfHorizon(t *testing.T) {
	members := variedMembers(4, 40, 5)
	allocs := func(h sim.Duration) float64 {
		cfg := SeriesConfig{
			Faults: clusterfaults.Spec{
				Seed: 3, Crash: 0.02, Downtime: 1.5, RestartFail: 0.3, Hang: 0.1, HangDur: 0.5, Degrade: 0.01,
			},
			Recovery: RecoveryConfig{Straggler: DropStraggler},
			Horizon:  h,
		}
		var rep *FaultReport
		n := testing.AllocsPerRun(5, func() {
			r, err := RunSeries(cfg, members)
			if err != nil {
				t.Fatal(err)
			}
			rep = r.Faults
		})
		if rep.Crashes == 0 || rep.Hangs == 0 || rep.Timeouts == 0 {
			t.Fatalf("horizon %v: regime too tame: %+v", h, rep)
		}
		return n
	}
	short, long := allocs(60*sim.Second), allocs(600*sim.Second)
	if long > short {
		t.Errorf("RunSeries allocations grow with the horizon: %v at 60 s, %v at 600 s", short, long)
	}
}

// A NaN or infinite horizon is rejected up front: NaN would make every
// rate in the report NaN, and +Inf would exhaust the replay's iteration
// budget.
func TestNonFiniteHorizonRejected(t *testing.T) {
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		cfg := SeriesConfig{Faults: clusterfaults.Spec{Seed: 1, Crash: 0.1}, Horizon: h}
		if err := cfg.Validate(); err == nil {
			t.Errorf("SeriesConfig.Validate accepted horizon %v", h)
		}
		if _, err := RunSeries(cfg, syntheticMembers(2, 10)); err == nil {
			t.Errorf("RunSeries accepted horizon %v", h)
		}
		c := testConfig(make([]WorkerSpec, 2))
		c.Horizon = h
		if err := c.Validate(); err == nil {
			t.Errorf("Config.Validate accepted horizon %v", h)
		}
	}
}
