package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kelp/internal/events"
)

// buildWith is Build with a pluggable placement, and an optional prep
// applied to the drawn machines before anything is placed.
func buildWith(cfg Config, prep func([]Machine), place func(*Fleet, *rand.Rand) error) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, rng := drawFleet(cfg)
	if prep != nil {
		prep(f.machines)
	}
	if err := place(f, rng); err != nil {
		return nil, err
	}
	f.collectShapes()
	return f, nil
}

// scanPlace is the reference placement: every selection is a linear scan
// of the whole fleet, as placement was written before the load index. It
// is the oracle the indexed placement must match exactly.
func scanPlace(f *Fleet, rng *rand.Rand) error {
	for j := 0; j < f.cfg.Jobs; j++ {
		if err := scanPlaceJob(f, j, rng); err != nil {
			return err
		}
	}
	scanPlaceBatch(f, rng)
	scanSaturationPass(f)
	return nil
}

// scanWorkerCandidates re-ranks the free machines for every job.
func scanWorkerCandidates(f *Fleet, rng *rand.Rand) []*Machine {
	var cand []*Machine
	for i := range f.machines {
		if f.machines[i].Job < 0 {
			cand = append(cand, &f.machines[i])
		}
	}
	switch f.cfg.Policy {
	case PolicyRandom:
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	case PolicyBandwidth:
		sort.SliceStable(cand, func(i, j int) bool { return lessLoad(cand[i], cand[j]) })
	case PolicyDistress:
		sort.SliceStable(cand, func(i, j int) bool {
			di := cand[i].estLoad()+workerLoadEst > SaturateMark
			dj := cand[j].estLoad()+workerLoadEst > SaturateMark
			if di != dj {
				return !di
			}
			return lessLoad(cand[i], cand[j])
		})
	case PolicyKelpAware:
		sort.SliceStable(cand, func(i, j int) bool {
			if cand[i].KelpOn != cand[j].KelpOn {
				return cand[i].KelpOn
			}
			return lessLoad(cand[i], cand[j])
		})
	}
	return cand
}

func scanPlaceJob(f *Fleet, j int, rng *rand.Rand) error {
	cand := scanWorkerCandidates(f, rng)
	if len(cand) < f.cfg.WorkersPerJob {
		return fmt.Errorf("fleet: job %d needs %d machines, %d free", j, f.cfg.WorkersPerJob, len(cand))
	}
	kelpOn := 0
	for w := 0; w < f.cfg.WorkersPerJob; w++ {
		cand[w].Job = j
		if cand[w].KelpOn {
			kelpOn++
		}
	}
	if f.cfg.Events.Enabled() {
		f.cfg.Events.Emit(0, events.FleetPlace, "fleet", map[string]any{
			"job":     j,
			"workers": f.cfg.WorkersPerJob,
			"kelp_on": kelpOn,
			"policy":  string(f.cfg.Policy),
		})
	}
	return nil
}

func scanPlaceBatch(f *Fleet, rng *rand.Rand) {
	if f.cfg.BatchTasks == 0 {
		return
	}
	for t := 0; t < f.cfg.BatchTasks; t++ {
		if m := scanPickBatchMachine(f, rng); m != nil {
			m.Batch++
		}
	}
	placed := 0
	for i := range f.machines {
		placed += f.machines[i].Batch
	}
	if f.cfg.Events.Enabled() {
		f.cfg.Events.Emit(0, events.FleetPlace, "fleet", map[string]any{
			"batch_tasks": placed,
			"requested":   f.cfg.BatchTasks,
			"policy":      string(f.cfg.Policy),
		})
	}
}

func scanPickBatchMachine(f *Fleet, rng *rand.Rand) *Machine {
	headroom := func(m *Machine) bool { return m.Batch < MaxBatchPerMach }
	switch f.cfg.Policy {
	case PolicyRandom:
		for try := 0; try < 4*len(f.machines); try++ {
			m := &f.machines[rng.Intn(len(f.machines))]
			if m.Batch < MaxBatchPerMach {
				return m
			}
		}
		return minLoadMachine(f, headroom)
	case PolicyBandwidth:
		return minLoadMachine(f, headroom)
	case PolicyDistress:
		if m := minLoadMachine(f, func(m *Machine) bool {
			return m.Batch < MaxBatchPerMach && m.Job < 0 && m.estLoad()+batchLoadEst <= SaturateMark
		}); m != nil {
			return m
		}
		if m := minLoadMachine(f, func(m *Machine) bool {
			return m.Batch < MaxBatchPerMach && m.estLoad()+batchLoadEst <= SaturateMark
		}); m != nil {
			return m
		}
		return minLoadMachine(f, headroom)
	case PolicyKelpAware:
		if m := minLoadMachine(f, func(m *Machine) bool {
			return m.Batch < MaxBatchPerMach && m.Job >= 0 && m.KelpOn
		}); m != nil {
			return m
		}
		if m := minLoadMachine(f, func(m *Machine) bool {
			return m.Batch < MaxBatchPerMach && m.Job < 0 && m.estLoad()+batchLoadEst <= SaturateMark
		}); m != nil {
			return m
		}
		return minLoadMachine(f, headroom)
	}
	return nil
}

// minLoadMachine returns the eligible machine with the lowest estimated
// load (lowest ID on ties), or nil when none is eligible.
func minLoadMachine(f *Fleet, ok func(*Machine) bool) *Machine {
	var best *Machine
	for i := range f.machines {
		m := &f.machines[i]
		if !ok(m) {
			continue
		}
		if best == nil || m.estLoad() < best.estLoad() {
			best = m
		}
	}
	return best
}

func scanSaturationPass(f *Fleet) {
	rebalance := f.cfg.Policy == PolicyDistress || f.cfg.Policy == PolicyKelpAware
	for i := range f.machines {
		m := &f.machines[i]
		if m.Job < 0 || m.estLoad() <= SaturateMark {
			continue
		}
		if f.cfg.Events.Enabled() {
			f.cfg.Events.Emit(0, events.MachineSaturate, "fleet", map[string]any{
				"machine": m.ID,
				"est_bw":  m.estLoad(),
				"job":     m.Job,
			})
		}
		if !rebalance {
			continue
		}
		for m.Batch > 0 && m.estLoad() > SaturateMark {
			dst := minLoadMachine(f, func(d *Machine) bool {
				return d.Job < 0 && d.Batch < MaxBatchPerMach &&
					d.estLoad()+batchLoadEst <= SaturateMark
			})
			if dst == nil {
				dst = minLoadMachine(f, func(d *Machine) bool {
					return d.Job < 0 && d.Batch < MaxBatchPerMach
				})
			}
			if dst == nil {
				break
			}
			m.Batch--
			dst.Batch++
			if f.cfg.Events.Enabled() {
				f.cfg.Events.Emit(0, events.FleetEvict, "fleet", map[string]any{
					"machine": m.ID,
					"reason":  "saturation",
				})
				f.cfg.Events.Emit(0, events.FleetRebalance, "fleet", map[string]any{
					"from": m.ID,
					"to":   dst.ID,
				})
			}
		}
	}
}

// placementEventCap holds every placement event of the configs below:
// one per job, one batch summary, and per worker at most one saturation
// plus MaxBatchPerMach evict/rebalance pairs.
const placementEventCap = 1 << 10

// checkPlacementMatchesScan places cfg (after prep, if non-nil) both
// ways, with event recorders attached, fails unless machines, shapes and
// event streams agree, and returns the indexed fleet.
func checkPlacementMatchesScan(t *testing.T, cfg Config, prep func([]Machine)) *Fleet {
	t.Helper()
	name := fmt.Sprintf("%s/M=%d/J=%dx%d/B=%d/kf=%v/seed=%d", cfg.Policy, cfg.Machines,
		cfg.Jobs, cfg.WorkersPerJob, cfg.BatchTasks, cfg.KelpFraction, cfg.Seed)
	cfg.Events = events.MustNew(placementEventCap)
	got, err := buildWith(cfg, prep, (*Fleet).place)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	gotEv := cfg.Events
	cfg.Events = events.MustNew(placementEventCap)
	want, err := buildWith(cfg, prep, scanPlace)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	wantEv := cfg.Events
	if gotEv.Dropped() != 0 || wantEv.Dropped() != 0 {
		t.Fatalf("%s: event ring overflowed", name)
	}
	for i, m := range got.Machines() {
		if w := want.Machines()[i]; m != w {
			t.Fatalf("%s: machine %d = %+v, reference %+v", name, i, m, w)
		}
	}
	if !reflect.DeepEqual(got.Shapes(), want.Shapes()) {
		t.Fatalf("%s: shapes differ from reference", name)
	}
	if !reflect.DeepEqual(gotEv.Events(), wantEv.Events()) {
		t.Fatalf("%s: event stream differs from reference (%d vs %d events)", name, gotEv.Len(), wantEv.Len())
	}
	return got
}

// TestPlacementMatchesScan pins the indexed placement to the linear-scan
// reference over every policy, three fleet sizes, batch densities from
// none to overfull (more tasks than the fleet's batch cap), all-Baseline
// to all-Kelp fleets, and four seeds. The race detector slows the
// reference scan about tenfold, so under it the 2000-machine fleet runs
// one seed; placement is serial, so the detector has nothing to add there.
func TestPlacementMatchesScan(t *testing.T) {
	sizes := []struct{ machines, jobs, workers, seeds int }{
		{40, 4, 5, 4},
		{300, 4, 8, 4},
		{2000, 8, 8, 4},
	}
	if raceEnabled {
		sizes[2].seeds = 1
	}
	for _, sz := range sizes {
		m := sz.machines
		for _, batch := range []int{0, 1, m / 10, m * 3 / 10, m, 2 * m, 4*m + 7} {
			for _, p := range Policies() {
				for _, kf := range []float64{0, 0.3, 1} {
					for seed := int64(1); seed <= int64(sz.seeds); seed++ {
						cfg := DefaultConfig()
						cfg.Machines, cfg.Jobs, cfg.WorkersPerJob = m, sz.jobs, sz.workers
						cfg.BatchTasks, cfg.Policy, cfg.KelpFraction, cfg.Seed = batch, p, kf, seed
						checkPlacementMatchesScan(t, cfg, nil)
					}
				}
			}
		}
	}
}

// quantizeLoads rounds every background load to a 0.05 step, so many
// machines tie on estimated load and selection falls to the ID tie-break.
func quantizeLoads(ms []Machine) {
	for i := range ms {
		ms[i].Load = math.Round(ms[i].Load*20) / 20
		ms[i].HasBackground, ms[i].Background = loadLevel(ms[i].Load)
	}
}

// Census loads are continuous draws, so the grid above almost never ties;
// quantized loads tie constantly and pin the lowest-ID-first rule.
func TestPlacementTiesMatchScan(t *testing.T) {
	for _, m := range []int{40, 300} {
		for _, batch := range []int{m / 10, m, 4*m + 7} {
			for _, p := range Policies() {
				for seed := int64(1); seed <= 2; seed++ {
					cfg := DefaultConfig()
					cfg.Machines, cfg.Jobs, cfg.WorkersPerJob = m, 4, 5
					cfg.BatchTasks, cfg.Policy, cfg.KelpFraction, cfg.Seed = batch, p, 0.5, seed
					checkPlacementMatchesScan(t, cfg, quantizeLoads)
				}
			}
		}
	}
}

// FuzzPlacement drives small random configs through both placements: the
// indexed build must match the reference exactly and respect the batch cap.
func FuzzPlacement(f *testing.F) {
	// Arguments: machines, jobs, workers per job, batch tasks, policy,
	// Kelp percentage, seed, quantized loads.
	// Overfull: 4·40+7 tasks exceed the fleet's 160 batch slots.
	f.Add(uint16(40), uint8(4), uint8(5), uint16(167), uint8(0), uint8(50), int64(1), false)
	f.Add(uint16(40), uint8(4), uint8(5), uint16(167), uint8(3), uint8(50), int64(2), true)
	// Dense enough that the saturation pass evicts and rebalances.
	f.Add(uint16(300), uint8(4), uint8(8), uint16(900), uint8(2), uint8(30), int64(3), false)
	f.Add(uint16(300), uint8(4), uint8(8), uint16(900), uint8(3), uint8(100), int64(4), true)
	f.Fuzz(func(t *testing.T, machines uint16, jobs, workers uint8, batch uint16, policy, kelp uint8, seed int64, quantize bool) {
		cfg := DefaultConfig()
		cfg.Machines = 1 + int(machines)%400
		cfg.Jobs = 1 + int(jobs)%min(8, cfg.Machines)
		cfg.WorkersPerJob = 1 + int(workers)%min(8, cfg.Machines/cfg.Jobs)
		cfg.BatchTasks = int(batch) % (4*cfg.Machines + 8)
		cfg.Policy = Policies()[int(policy)%len(Policies())]
		cfg.KelpFraction = float64(kelp%101) / 100
		cfg.Seed = seed
		var prep func([]Machine)
		if quantize {
			prep = quantizeLoads
		}
		for _, m := range checkPlacementMatchesScan(t, cfg, prep).Machines() {
			if m.Batch < 0 || m.Batch > MaxBatchPerMach {
				t.Fatalf("%+v: machine %d holds %d batch tasks", cfg, m.ID, m.Batch)
			}
		}
	})
}

// leastK must return exactly the first k machines of a full sort, for
// every k (none, some, all, more than all), under heavily tied keys.
func TestLeastKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ms := make([]Machine, 300)
	for i := range ms {
		ms[i] = Machine{ID: i, Load: float64(rng.Intn(5)) / 10, KelpOn: rng.Intn(2) == 0, Job: -1}
	}
	less := func(a, b *Machine) bool {
		if a.KelpOn != b.KelpOn {
			return a.KelpOn
		}
		return lessLoad(a, b)
	}
	ptrs := func() []*Machine {
		out := make([]*Machine, len(ms))
		for i := range ms {
			out[i] = &ms[i]
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	full := ptrs()
	sort.Slice(full, func(i, j int) bool { return less(full[i], full[j]) })
	for _, k := range []int{0, 1, 2, 7, 64, 299, 300, 301} {
		got := leastK(ptrs(), k, less)
		want := full[:min(k, len(full))]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: leastK differs from the sorted prefix", k)
		}
	}
}
