// Package fleet scales the reproduction from one node to a warehouse: a
// synthetic fleet of O(10³–10⁴) heterogeneous machines whose background
// load is drawn from the paper's Fig. 2 bandwidth census mixture, onto
// which lock-step ML training jobs (composed by internal/cluster) and
// best-effort batch tasks are placed by pluggable policies — random,
// bandwidth-aware bin-packing, distress-aware, and Kelp-aware. The fleet
// answer to the paper's node-level question: what does per-node QoS buy at
// warehouse scale?
//
// The headline metric is ML Productivity Goodput (after the TPU
// fleet-efficiency study, arxiv 2502.06982): the fleet's achieved useful
// training-step rate as a fraction of what the same jobs would sustain on
// uncontended reference machines. Its diagnostic components map onto
// cluster.FaultReport — availability goodput (1 − downtime fraction),
// program goodput (1 − wasted-step fraction), and throughput goodput
// (interference-degraded step rate versus the reference).
//
// Tractability comes from archetype deduplication: thousands of machines
// collapse onto a few dozen distinct MachineShapes (worker present, Kelp
// on/off, background level, batch-task count, seed variant); only distinct
// shapes are simulated — sharded over internal/pool, shared-nothing, with
// input-ordered collection so results are byte-identical at any
// parallelism — and every machine of a shape shares the measurement.
// Placement is serial and seeded; composition replays jobs concurrently
// but aggregates them in job order, so a (Config, Measurer) pair fully
// determines the Result.
//
// The package also retains the Fig. 2 bandwidth census itself (census.go:
// CensusConfig, RunCensus), which both motivates the fleet model and
// supplies its load distribution.
package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"kelp/internal/cluster"
	"kelp/internal/clusterfaults"
	"kelp/internal/events"
	"kelp/internal/pool"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// Policy selects a placement policy.
type Policy string

// The placement policies.
const (
	// PolicyRandom scatters workers and batch tasks uniformly.
	PolicyRandom Policy = "random"
	// PolicyBandwidth bin-packs by bandwidth headroom: workers and batch
	// tasks greedily take the machine with the lowest estimated load.
	PolicyBandwidth Policy = "bw"
	// PolicyDistress is PolicyBandwidth plus distress avoidance: machines
	// whose estimated load would cross the saturation watermark are
	// avoided, and batch tasks that would push a worker machine across it
	// are evicted and rebalanced elsewhere.
	PolicyDistress Policy = "distress"
	// PolicyKelpAware prefers Kelp-on machines for ML workers and
	// deliberately colocates batch tasks onto Kelp-on worker machines —
	// node-level QoS makes the colocation safe, so protected machines
	// absorb the batch work the other policies must scatter.
	PolicyKelpAware Policy = "kelp"
)

// Policies lists the placement policies in presentation order.
func Policies() []Policy {
	return []Policy{PolicyRandom, PolicyBandwidth, PolicyDistress, PolicyKelpAware}
}

// Placement-model constants: estimated bandwidth demand of one batch task
// and one ML worker's host side (fractions of machine peak), the distress
// watermark (the paper's 70%-of-peak headline doubles as the placement
// threshold), and the per-machine batch cap.
const (
	batchLoadEst    = 0.12
	workerLoadEst   = 0.15
	SaturateMark    = 0.70
	MaxBatchPerMach = 4
	// DefaultSeedVariants is how many per-worker RNG seed variants worker
	// shapes spread across, so a job's members do not share byte-identical
	// step series (which would erase the tail-at-scale composition).
	DefaultSeedVariants = 3
)

// Config parameterizes a fleet run.
type Config struct {
	// Machines is the fleet size.
	Machines int
	// KelpFraction is the fraction of machines running the Kelp policy
	// (the rest run Baseline).
	KelpFraction float64
	// Jobs is the number of lock-step ML training jobs to place.
	Jobs int
	// WorkersPerJob is each job's worker count; every worker occupies a
	// distinct machine.
	WorkersPerJob int
	// BatchTasks is the number of best-effort batch tasks to place.
	BatchTasks int
	// Policy selects the placement policy.
	Policy Policy
	// Seed drives the machine draw and every placement decision.
	Seed int64
	// SeedVariants spreads worker machines across per-machine RNG seed
	// variants; 0 selects DefaultSeedVariants.
	SeedVariants int
	// Faults optionally injects cluster-level failures into every job's
	// lock-step composition (per-job derived seeds). The zero Spec
	// disables injection.
	Faults clusterfaults.Spec
	// Recovery parameterizes each job's defensive layer; zero selects the
	// cluster defaults. Only consulted when Faults is enabled.
	Recovery cluster.RecoveryConfig
	// Horizon is the per-job fault-replay wall-clock; 0 selects the
	// cluster default. Only consulted when Faults is enabled.
	Horizon sim.Duration
	// Events, when non-nil, receives fleet-sourced placement events
	// (fleet.place, fleet.evict, fleet.rebalance, machine.saturate) from
	// Build and cluster-sourced replay events from Tick. The recorder is
	// passive: attaching one never changes results.
	Events *events.Recorder
}

// DefaultConfig places 8 jobs of 8 workers plus 600 batch tasks on 2,000
// machines, half of them running Kelp.
func DefaultConfig() Config {
	return Config{
		Machines:      2000,
		KelpFraction:  0.5,
		Jobs:          8,
		WorkersPerJob: 8,
		BatchTasks:    600,
		Policy:        PolicyRandom,
		Seed:          2,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Machines < 1 {
		return fmt.Errorf("fleet: Machines = %d", c.Machines)
	}
	if c.KelpFraction < 0 || c.KelpFraction > 1 {
		return fmt.Errorf("fleet: KelpFraction = %v, want [0, 1]", c.KelpFraction)
	}
	if c.Jobs < 1 || c.WorkersPerJob < 1 {
		return fmt.Errorf("fleet: Jobs = %d x WorkersPerJob = %d, want >= 1 each", c.Jobs, c.WorkersPerJob)
	}
	if c.Machines > math.MaxInt32 {
		// The load index keys machines by int32 ID.
		return fmt.Errorf("fleet: Machines = %d, want <= %d", c.Machines, math.MaxInt32)
	}
	// Jobs x WorkersPerJob > Machines, without overflowing the product.
	if c.Jobs > c.Machines/c.WorkersPerJob {
		return fmt.Errorf("fleet: %d jobs x %d workers exceed %d machines", c.Jobs, c.WorkersPerJob, c.Machines)
	}
	if c.BatchTasks < 0 {
		return fmt.Errorf("fleet: BatchTasks = %d", c.BatchTasks)
	}
	switch c.Policy {
	case PolicyRandom, PolicyBandwidth, PolicyDistress, PolicyKelpAware:
	default:
		return fmt.Errorf("fleet: unknown policy %q", c.Policy)
	}
	if c.SeedVariants < 0 {
		return fmt.Errorf("fleet: SeedVariants = %d", c.SeedVariants)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Recovery.Validate(); err != nil {
		return err
	}
	if math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) || c.Horizon < 0 {
		return fmt.Errorf("fleet: horizon = %v, want a finite duration >= 0", c.Horizon)
	}
	return nil
}

// Machine is one fleet machine and its placement state.
type Machine struct {
	// ID indexes the machine.
	ID int
	// Load is the machine's background bandwidth utilization (fraction of
	// peak), drawn from the Fig. 2 census mixture.
	Load float64
	// KelpOn marks the machine as running the Kelp node policy.
	KelpOn bool
	// HasBackground / Background discretize Load into the node model's
	// antagonist levels (no antagonist below the idle threshold).
	HasBackground bool
	Background    workload.Level
	// Job is the lock-step job whose worker this machine hosts (-1 none).
	Job int
	// Batch is the number of batch tasks placed here.
	Batch int
}

// estLoad is the placement-time bandwidth estimate for the machine's
// current assignment.
func (m *Machine) estLoad() float64 {
	l := m.Load + batchLoadEst*float64(m.Batch)
	if m.Job >= 0 {
		l += workerLoadEst
	}
	return l
}

// MachineShape is a machine's simulation archetype: every machine with the
// same shape is simulated once and shares the measurement.
type MachineShape struct {
	// HasWorker marks the shape as hosting one lock-step ML worker.
	HasWorker bool
	// KelpOn selects the node policy (only meaningful with a worker;
	// batch-only machines run Baseline).
	KelpOn bool
	// HasBackground / Background select the colocated antagonist level.
	HasBackground bool
	Background    workload.Level
	// Batch is the number of best-effort batch tasks on the machine.
	Batch int
	// Variant selects the per-machine RNG seed variant (worker shapes
	// only), so members of a job see decorrelated step series.
	Variant int
}

// Idle reports whether the shape hosts nothing at all — idle machines are
// never simulated.
func (s MachineShape) Idle() bool {
	return !s.HasWorker && !s.HasBackground && s.Batch == 0
}

// Escalate returns the shape one interference level up — the series the
// cluster replay switches to when a degrade fault fires (mirrors the
// cluster package's escalation rule).
func (s MachineShape) Escalate() MachineShape {
	if !s.HasBackground {
		s.HasBackground = true
		s.Background = workload.LevelMedium
		return s
	}
	if s.Background < workload.LevelHigh {
		s.Background++
	}
	return s
}

// String renders the shape compactly (for events and errors).
func (s MachineShape) String() string {
	pol := "BL"
	if s.KelpOn {
		pol = "KP"
	}
	w := "-"
	if s.HasWorker {
		w = fmt.Sprintf("ml:%s/v%d", pol, s.Variant)
	}
	bg := "-"
	if s.HasBackground {
		bg = s.Background.String()
	}
	return fmt.Sprintf("{%s bg:%s batch:%d}", w, bg, s.Batch)
}

// ReferenceShape is the uncontended reference machine every measurement is
// normalized against: one worker, Baseline policy, nothing colocated.
func ReferenceShape() MachineShape {
	return MachineShape{HasWorker: true}
}

// Measurement is one shape's simulated outcome, produced by a Measurer.
type Measurement struct {
	// StepsPerSec is the ML worker's standalone training rate (0 for
	// shapes without a worker).
	StepsPerSec float64
	// StepTimes are the worker's step-completion timestamps within the
	// measured interval.
	StepTimes []float64
	// BatchItemsPerSec is the summed batch-task throughput.
	BatchItemsPerSec float64
}

// Measurer simulates one machine shape. Implementations must be
// deterministic in the shape and safe for concurrent calls — the fleet
// shards distinct shapes over internal/pool. The experiments package
// provides the node-simulation measurer (Harness.MachineMeasurer);
// tests may substitute synthetic ones.
type Measurer func(shape MachineShape) (*Measurement, error)

// Fleet is a placed fleet, ready to simulate and compose.
type Fleet struct {
	cfg      Config
	machines []Machine
	// shapes are the distinct non-idle machine shapes in first-seen
	// machine order.
	shapes []MachineShape
	// After Simulate, measured holds the measurement of every simulated
	// shape (each of shapes, escalated worker shapes and the reference),
	// and slot maps a shape's code (shapeCode) to its index in measured,
	// -1 for a shape not simulated. Both are nil before.
	measured []*Measurement
	slot     []int32
	// parallel is the worker count Simulate was given; Tick replays jobs
	// with it.
	parallel int
}

// Config returns the fleet's configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Machines returns the fleet's machines with their placements (do not
// mutate).
func (f *Fleet) Machines() []Machine { return f.machines }

// Shapes returns the distinct non-idle machine shapes, in deterministic
// first-seen order (do not mutate).
func (f *Fleet) Shapes() []MachineShape { return f.shapes }

// variants resolves the configured seed-variant count.
func (c Config) variants() int {
	if c.SeedVariants > 0 {
		return c.SeedVariants
	}
	return DefaultSeedVariants
}

// codeVariants is the seed-variant span of shape codes. A worker's variant
// is its machine ID modulo the configured count, so it is also below the
// fleet size, which bounds the code table however many variants are
// configured.
func (c Config) codeVariants() int { return min(c.variants(), c.Machines) }

// loadCodes counts a shape's background states (none, low, medium, high)
// times its batch counts (0 through MaxBatchPerMach).
const loadCodes = 4 * (MaxBatchPerMach + 1)

// numShapeCodes is the size of the dense shape-code space: loadCodes
// shapes without a worker, and for each worker policy loadCodes times
// codeVariants worker shapes.
func (c Config) numShapeCodes() int { return loadCodes + 2*loadCodes*c.codeVariants() }

// shapeCode packs a shape into a dense code below numShapeCodes. Every
// shape the fleet meets — a machine's, an escalated worker shape, the
// reference — holds at most MaxBatchPerMach batch tasks, and only a worker
// shape carries KelpOn or a Variant, so the code is unique among them.
func (c Config) shapeCode(s MachineShape) int {
	code := s.Batch
	if s.HasBackground {
		code += (1 + int(s.Background)) * (MaxBatchPerMach + 1)
	}
	if !s.HasWorker {
		return code
	}
	if s.KelpOn {
		code += loadCodes
	}
	return loadCodes + code*c.codeVariants() + s.Variant
}

// measurement returns the shape's measurement, or nil when Simulate has
// not measured it.
func (f *Fleet) measurement(s MachineShape) *Measurement {
	if f.slot == nil {
		return nil
	}
	if i := f.slot[f.cfg.shapeCode(s)]; i >= 0 {
		return f.measured[i]
	}
	return nil
}

// shapeOf returns the machine's simulation archetype.
func (f *Fleet) shapeOf(m *Machine) MachineShape {
	s := MachineShape{
		HasBackground: m.HasBackground,
		Background:    m.Background,
		Batch:         m.Batch,
	}
	if m.Job >= 0 {
		s.HasWorker = true
		s.KelpOn = m.KelpOn
		s.Variant = m.ID % f.cfg.variants()
	}
	return s
}

// Build draws the fleet's machines from the census mixture and places jobs
// and batch tasks under the configured policy. Placement is serial and
// seeded: equal configs build identical fleets. Placement events
// (fleet.place, fleet.evict, fleet.rebalance, machine.saturate) are
// emitted here, at simulated time zero.
func Build(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, rng := drawFleet(cfg)
	if err := f.place(rng); err != nil {
		return nil, err
	}
	f.collectShapes()
	return f, nil
}

// drawFleet draws a validated config's unplaced machines and returns the
// seeded rng, positioned for placement.
func drawFleet(cfg Config) (*Fleet, *rand.Rand) {
	f := &Fleet{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f.machines = make([]Machine, cfg.Machines)
	for i := range f.machines {
		m := &f.machines[i]
		m.ID = i
		m.Load = drawLoad(rng)
		m.KelpOn = rng.Float64() < cfg.KelpFraction
		m.HasBackground, m.Background = loadLevel(m.Load)
		m.Job = -1
	}
	return f, rng
}

// drawLoad samples a machine's background bandwidth utilization from the
// census mixture (census.go): mostly-idle, moderate, and heavy-batch
// machine archetypes.
func drawLoad(rng *rand.Rand) float64 {
	switch p := rng.Float64(); {
	case p < 0.45: // lightly loaded
		return 0.08 + 0.12*rng.Float64()
	case p < 0.85: // moderate
		return 0.20 + 0.30*rng.Float64()
	default: // heavy batch
		return 0.55 + 0.35*rng.Float64()
	}
}

// loadLevel discretizes a background utilization draw into the node
// model's antagonist levels.
func loadLevel(load float64) (bool, workload.Level) {
	switch {
	case load < 0.18:
		return false, workload.LevelLow
	case load < 0.35:
		return true, workload.LevelLow
	case load < 0.55:
		return true, workload.LevelMedium
	default:
		return true, workload.LevelHigh
	}
}

// collectShapes records the distinct non-idle shapes in first-seen order.
func (f *Fleet) collectShapes() {
	seen := make([]bool, f.cfg.numShapeCodes())
	f.shapes = f.shapes[:0]
	for i := range f.machines {
		s := f.shapeOf(&f.machines[i])
		if c := f.cfg.shapeCode(s); !s.Idle() && !seen[c] {
			seen[c] = true
			f.shapes = append(f.shapes, s)
		}
	}
}

// Simulate measures every distinct machine shape (plus, when degrade
// faults are configured, each worker shape's escalated counterpart, and
// always the uncontended reference), sharding over internal/pool with
// input-ordered collection. parallel bounds concurrency (0 = one worker
// per CPU, 1 = serial), here and in Tick; results are identical at any
// setting.
func (f *Fleet) Simulate(m Measurer, parallel int) error {
	if m == nil {
		return fmt.Errorf("fleet: nil measurer")
	}
	want := make([]MachineShape, 0, 2*len(f.shapes)+1)
	slot := make([]int32, f.cfg.numShapeCodes())
	for i := range slot {
		slot[i] = -1
	}
	add := func(s MachineShape) {
		if c := f.cfg.shapeCode(s); slot[c] < 0 {
			slot[c] = int32(len(want))
			want = append(want, s)
		}
	}
	add(ReferenceShape())
	for _, s := range f.shapes {
		add(s)
		if f.cfg.Faults.Degrade > 0 && s.HasWorker {
			add(s.Escalate())
		}
	}
	res, err := pool.Collect(parallel, len(want), func(i int) (*Measurement, error) {
		r, err := m(want[i])
		if err != nil {
			return nil, fmt.Errorf("shape %v: %w", want[i], err)
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	f.measured, f.slot, f.parallel = res, slot, parallel
	return nil
}

// Run builds, simulates and composes a fleet in one call.
func Run(cfg Config, m Measurer, parallel int) (*Result, error) {
	f, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Simulate(m, parallel); err != nil {
		return nil, err
	}
	return f.Tick()
}
