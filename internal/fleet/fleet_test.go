package fleet

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"kelp/internal/cluster"
	"kelp/internal/clusterfaults"
	"kelp/internal/events"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// synthMeasure is a deterministic, purely arithmetic Measurer for tests:
// background interference costs throughput, Kelp shields most of it, batch
// tasks cost a little more, and the seed variant adds a small per-machine
// step-time skew.
func synthMeasure(shape MachineShape) (*Measurement, error) {
	if shape.Idle() {
		return nil, fmt.Errorf("idle shape %v measured", shape)
	}
	meas := &Measurement{BatchItemsPerSec: 5 * float64(shape.Batch)}
	if !shape.HasWorker {
		return meas, nil
	}
	rate := 10.0
	penalty := 0.0
	if shape.HasBackground {
		penalty += 0.12 * float64(shape.Background+1)
	}
	penalty += 0.03 * float64(shape.Batch)
	if shape.KelpOn {
		penalty *= 0.2
	}
	rate *= 1 - penalty
	d := (1 / rate) * (1 + 0.01*float64(shape.Variant))
	times := make([]float64, 60)
	for k := range times {
		times[k] = float64(k+1) * d
	}
	meas.StepsPerSec = 1 / d
	meas.StepTimes = times
	return meas, nil
}

// policies lists the placement policies, each test's cases.
var policies = []Policy{PolicyRandom, PolicyBandwidth, PolicyDistress, PolicyKelpAware}

// testConfig is a small fleet every test can afford.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Machines = 300
	cfg.Jobs = 4
	cfg.WorkersPerJob = 4
	cfg.BatchTasks = 90
	return cfg
}

func TestFleetConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: "nope"},
		{Machines: 10, Jobs: 3, WorkersPerJob: 4, Policy: PolicyRandom},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, KelpFraction: 1.5},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, BatchTasks: -1},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, SeedVariants: -1},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, Horizon: -1},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, Horizon: math.NaN()},
		{Machines: 10, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom, Horizon: math.Inf(1)},
	}
	// Counts only a 64-bit int holds, shifted at run time so that the file
	// also builds where int has 32 bits: Jobs x WorkersPerJob = 2⁶⁴ wraps
	// to 0 in int arithmetic, and Machines is past math.MaxInt32.
	if one := 1; strconv.IntSize == 64 {
		bad = append(bad,
			Config{Machines: 2000, Jobs: one << 33, WorkersPerJob: one << 31, Policy: PolicyRandom},
			Config{Machines: one << 31, Jobs: 1, WorkersPerJob: 1, Policy: PolicyRandom},
		)
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, p := range policies {
		cfg := testConfig()
		cfg.Policy = p
		a, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		b, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.machines, b.machines) {
			t.Errorf("%s: same seed placed differently", p)
		}
		cfg.Seed++
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.machines, c.machines) {
			t.Errorf("%s: different seeds placed identically", p)
		}
	}
}

func TestPlacementInvariants(t *testing.T) {
	for _, p := range policies {
		cfg := testConfig()
		cfg.Policy = p
		f, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		workers := make(map[int]int)
		batch := 0
		for _, m := range f.machines {
			if m.Job >= 0 {
				workers[m.Job]++
			}
			if m.Batch < 0 || m.Batch > MaxBatchPerMach {
				t.Fatalf("%s: machine %d holds %d batch tasks", p, m.ID, m.Batch)
			}
			batch += m.Batch
		}
		if len(workers) != cfg.Jobs {
			t.Errorf("%s: %d jobs placed, want %d", p, len(workers), cfg.Jobs)
		}
		for j, n := range workers {
			if n != cfg.WorkersPerJob {
				t.Errorf("%s: job %d has %d workers, want %d", p, j, n, cfg.WorkersPerJob)
			}
		}
		if batch != cfg.BatchTasks {
			t.Errorf("%s: %d batch tasks placed, want %d", p, batch, cfg.BatchTasks)
		}
	}
}

// The Kelp-aware policy must put every worker on the protected population
// when it is large enough to hold them.
func TestKelpAwareWorkerPlacement(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyKelpAware
	f, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range f.machines {
		if m.Job >= 0 && !m.KelpOn {
			t.Fatalf("kelp-aware policy placed job %d's worker on Kelp-off machine %d", m.Job, m.ID)
		}
	}
}

// The distress-aware policy's rebalance pass must leave no worker machine
// above the watermark while non-worker headroom exists; random keeps its
// saturating placements.
func TestDistressRebalance(t *testing.T) {
	cfg := testConfig()
	cfg.BatchTasks = 400 // enough pressure that random saturates some ML machines
	saturated := func(p Policy) int {
		cfg.Policy = p
		f, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := range f.machines {
			m := &f.machines[i]
			if m.Job >= 0 && m.estLoad() > SaturateMark {
				n++
			}
		}
		return n
	}
	if n := saturated(PolicyDistress); n != 0 {
		t.Errorf("distress policy left %d saturated worker machines", n)
	}
	if n := saturated(PolicyRandom); n == 0 {
		t.Skip("random placement saturated no worker machine at this seed; contrast not exercised")
	}
}

func TestEscalate(t *testing.T) {
	s := MachineShape{HasWorker: true}
	s = s.Escalate()
	if !s.HasBackground || s.Background != workload.LevelMedium {
		t.Fatalf("clean shape escalated to %+v", s)
	}
	s = s.Escalate()
	if s.Background != workload.LevelHigh {
		t.Fatalf("medium shape escalated to %+v", s)
	}
	if s.Escalate().Background != workload.LevelHigh {
		t.Fatal("high shape escalated past high")
	}
}

// Fleet results must be byte-identical at any simulation parallelism.
func TestSimulateParallelIdentical(t *testing.T) {
	specs := map[string]clusterfaults.Spec{
		"crash+hang": {Seed: 7, Crash: 0.02, Downtime: 1.5, Hang: 0.1, HangDur: 0.5},
		// Degrade faults replay escalated shapes' series.
		"degrade": {Seed: 3, Crash: 0.01, Downtime: 1, Degrade: 0.05},
	}
	for name, spec := range specs {
		for _, recorded := range []bool{false, true} {
			run := func(parallel int) (*Result, []byte) {
				cfg := testConfig()
				cfg.Faults = spec
				cfg.Horizon = 60 * sim.Second
				if recorded {
					cfg.Events = events.MustNew(1 << 16)
				}
				res, err := Run(cfg, synthMeasure, parallel)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Events.Dropped() != 0 {
					t.Fatalf("%s: event ring overflowed", name)
				}
				var buf bytes.Buffer
				if err := events.WriteJSONL(&buf, cfg.Events.Events()); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			a, aev := run(1)
			b, bev := run(8)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s (recorder %v): parallel 1 vs 8 diverged:\n%+v\n%+v", name, recorded, a, b)
			}
			if !bytes.Equal(aev, bev) {
				t.Errorf("%s: parallel 1 vs 8 event streams differ", name)
			}
			if recorded && len(aev) == 0 {
				t.Errorf("%s: recorder saw no events", name)
			}
		}
	}
}

// Every slot of the load index's heaps caches its machine's (estLoad, ID)
// key: after placement under every policy, a key that update failed to
// refresh would differ from the machine's current estimate. Each heap must
// also hold the heap order, and pos must point at each machine's slot.
func TestLoadIndexKeysFresh(t *testing.T) {
	for _, p := range policies {
		// Sparse, dense enough to rebalance, and overfull.
		for _, batch := range []int{90, 900, 1207} {
			cfg := testConfig()
			cfg.Policy, cfg.BatchTasks = p, batch
			f, rng := drawFleet(cfg)
			if err := f.placeJobs(rng); err != nil {
				t.Fatal(err)
			}
			x := newLoadIndex(f.machines)
			f.placeBatch(rng, x)
			f.saturationPass(x)
			indexed := 0
			for c, h := range x.heaps {
				for i, sl := range h {
					m := &f.machines[sl.id]
					if sl.load != m.estLoad() {
						t.Fatalf("%s/B=%d: machine %d keyed %v, estLoad %v", p, batch, m.ID, sl.load, m.estLoad())
					}
					if classOf(m) != c || m.Batch >= MaxBatchPerMach || int(x.pos[m.ID]) != i {
						t.Fatalf("%s/B=%d: machine %d misfiled (class %d, slot %d, pos %d)", p, batch, m.ID, c, i, x.pos[m.ID])
					}
					if i > 0 && sl.less(h[(i-1)/2]) {
						t.Fatalf("%s/B=%d: heap order broken at slot %d", p, batch, i)
					}
				}
				indexed += len(h)
			}
			for i := range f.machines {
				if m := &f.machines[i]; m.Batch < MaxBatchPerMach && x.pos[m.ID] < 0 {
					t.Fatalf("%s/B=%d: machine %d has headroom but is not indexed", p, batch, m.ID)
				}
			}
			if indexed == 0 && batch < MaxBatchPerMach*cfg.Machines {
				t.Fatalf("%s/B=%d: empty index", p, batch)
			}
		}
	}
}

// Under colocation the Kelp-on population must out-produce the Kelp-off
// population, and an all-Kelp fleet must beat an all-Baseline one.
func TestKelpPopulationWins(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkersOn == 0 || res.WorkersOff == 0 {
		t.Fatalf("mixed fleet has empty population: %+v", res)
	}
	if res.MPGKelpOn <= res.MPGKelpOff {
		t.Errorf("MPG kelp-on %.3f <= kelp-off %.3f", res.MPGKelpOn, res.MPGKelpOff)
	}
	off := cfg
	off.KelpFraction = 0
	on := cfg
	on.KelpFraction = 1
	roff, err := Run(off, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	ron, err := Run(on, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ron.MPG <= roff.MPG {
		t.Errorf("all-Kelp fleet MPG %.3f <= all-Baseline %.3f", ron.MPG, roff.MPG)
	}
}

// Degrade faults require escalated-shape measurements; Tick must wire them
// into the members' degraded series.
func TestDegradeSeriesWired(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = clusterfaults.Spec{Seed: 3, Degrade: 0.05}
	cfg.Horizon = 60 * sim.Second
	res, err := Run(cfg, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPG <= 0 || res.MPG > 1 {
		t.Errorf("MPG = %v under degrade faults", res.MPG)
	}
}

func TestTickRequiresSimulate(t *testing.T) {
	f, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Tick(); err == nil {
		t.Error("Tick before Simulate accepted")
	}
}

// A recorder sees the placement decisions; the Kelp-aware policy's
// colocate-then-trim loop emits saturations, evictions and rebalances, and
// the recorder never changes results.
func TestFleetEvents(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyKelpAware
	quiet, err := Run(cfg, synthMeasure, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := events.MustNew(1 << 14)
	cfg.Events = rec
	recorded, err := Run(cfg, synthMeasure, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Events = nil
	if !reflect.DeepEqual(quiet, recorded) {
		t.Error("attaching a recorder changed fleet results")
	}
	counts := make(map[events.Type]int)
	for _, e := range rec.Events() {
		counts[e.Type]++
	}
	if counts[events.FleetPlace] < cfg.Jobs+1 {
		t.Errorf("fleet.place events = %d, want >= %d", counts[events.FleetPlace], cfg.Jobs+1)
	}
	if counts[events.MachineSaturate] == 0 {
		t.Error("no machine.saturate events under batch pressure")
	}
	if counts[events.FleetEvict] == 0 || counts[events.FleetEvict] != counts[events.FleetRebalance] {
		t.Errorf("evict/rebalance events = %d/%d, want equal and > 0",
			counts[events.FleetEvict], counts[events.FleetRebalance])
	}
}

// An all-workers-dead job must drag the fleet MPG down via a zero, not
// poison it with NaN (the cluster aggregation bugfix, seen fleet-side).
func TestAllDeadJobContributesZero(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = clusterfaults.Spec{Seed: 5, Crash: 1000, Downtime: 0.5, RestartFail: 1}
	cfg.Recovery = cluster.RecoveryConfig{MaxRestarts: 1}
	cfg.Horizon = 30 * sim.Second
	res, err := Run(cfg, synthMeasure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPG != 0 || res.AvailabilityGoodput != 0 {
		t.Errorf("all-dead fleet reports MPG=%v avail=%v, want 0/0", res.MPG, res.AvailabilityGoodput)
	}
	for _, j := range res.Jobs {
		if j.DeadWorkers != cfg.WorkersPerJob {
			t.Fatalf("job %d: %d dead workers, want %d", j.Job, j.DeadWorkers, cfg.WorkersPerJob)
		}
	}
}

// BenchmarkFleetTick pins the fleet composition hot path: per-job
// lock-step composition plus fault replay over canned measurements.
// Placement (Build) and simulation run before the timer starts; placement
// is BenchmarkFleetBuild, simulation the node model's benchmarks.
func BenchmarkFleetTick(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Faults = clusterfaults.Spec{Seed: 7, Crash: 0.02, Downtime: 1.5, Hang: 0.1, HangDur: 0.5}
	cfg.Horizon = 120 * sim.Second
	f, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Simulate(synthMeasure, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetBuild times placement: the machine draw, job and batch
// placement, and the saturation pass, one sub-benchmark per policy at the
// fleet study's 20000-machine config (8x8-worker jobs, 6000 batch tasks)
// on the mixed fleet every policy row of the study places onto.
func BenchmarkFleetBuild(b *testing.B) {
	for _, p := range policies {
		b.Run(string(p), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Machines = 20000
			cfg.BatchTasks = 6000
			cfg.KelpFraction = 0.5
			cfg.Policy = p
			for i := 0; i < b.N; i++ {
				if _, err := Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
