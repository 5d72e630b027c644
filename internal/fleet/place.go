package fleet

import (
	"fmt"
	"math/rand"
	"sort"

	"kelp/internal/events"
)

// place assigns every job's workers and every batch task to machines under
// the configured policy, then (for the distress-aware policies) runs one
// rebalance pass that moves batch work off saturated worker machines. All
// decisions are serial and draw only from the given seeded rng, so
// placement is deterministic in (Config, Seed).
//
// Batch placement and the rebalance pass select machines through a
// loadIndex built after job placement, so placing T batch tasks on M
// machines costs O((M + T) log M). The index lives only for this call.
func (f *Fleet) place(rng *rand.Rand) error {
	if err := f.placeJobs(rng); err != nil {
		return err
	}
	x := newLoadIndex(f.machines)
	f.placeBatch(rng, x)
	f.saturationPass(x)
	return nil
}

// placeJobs assigns every job's workers to the policy's top-ranked free
// machines and emits one fleet.place event per job. Random placement
// reshuffles the free machines for each job, refilling one buffer in ID
// order before every shuffle. The other policies rank the
// fleet once: no batch task is placed yet, so their sort keys are static,
// and each key is a total order (ID breaks ties), so job j's top-ranked
// free machines are exactly the ranking's j-th WorkersPerJob block.
func (f *Fleet) placeJobs(rng *rand.Rand) error {
	w := f.cfg.WorkersPerJob
	var ranked, free []*Machine
	if f.cfg.Policy != PolicyRandom {
		ranked = f.rankWorkers(f.cfg.Jobs * w)
	} else {
		free = make([]*Machine, 0, len(f.machines))
	}
	for j := 0; j < f.cfg.Jobs; j++ {
		var cand []*Machine
		if ranked != nil {
			cand = ranked[j*w:]
		} else {
			free = f.freeMachines(free[:0])
			cand = free
			rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		}
		if len(cand) < w {
			return fmt.Errorf("fleet: job %d needs %d machines, %d free", j, w, len(cand))
		}
		kelpOn := 0
		for _, m := range cand[:w] {
			m.Job = j
			if m.KelpOn {
				kelpOn++
			}
		}
		if f.cfg.Events.Enabled() {
			f.cfg.Events.Emit(0, events.FleetPlace, "fleet", map[string]any{
				"job":     j,
				"workers": w,
				"kelp_on": kelpOn,
				"policy":  string(f.cfg.Policy),
			})
		}
	}
	return nil
}

// freeMachines appends the machines able to host a worker (no worker yet)
// to cand, in ID order.
func (f *Fleet) freeMachines(cand []*Machine) []*Machine {
	for i := range f.machines {
		if f.machines[i].Job < 0 {
			cand = append(cand, &f.machines[i])
		}
	}
	return cand
}

// rankWorkers returns the first k free machines in a ranked policy's worker
// preference order (all of them, ranked, when fewer than k are free), so a
// job that cannot be placed still sees the exact free count.
func (f *Fleet) rankWorkers(k int) []*Machine {
	var less func(a, b *Machine) bool
	switch f.cfg.Policy {
	case PolicyBandwidth:
		less = lessLoad
	case PolicyDistress:
		// Below-watermark machines first (each group least-loaded first):
		// a worker should not land on a machine already near saturation.
		less = func(a, b *Machine) bool {
			da := a.estLoad()+workerLoadEst > SaturateMark
			db := b.estLoad()+workerLoadEst > SaturateMark
			if da != db {
				return !da
			}
			return lessLoad(a, b)
		}
	case PolicyKelpAware:
		// Kelp-on machines first — the protected population is where ML
		// belongs — then by headroom within each population.
		less = func(a, b *Machine) bool {
			if a.KelpOn != b.KelpOn {
				return a.KelpOn
			}
			return lessLoad(a, b)
		}
	}
	return leastK(f.freeMachines(make([]*Machine, 0, len(f.machines))), k, less)
}

// leastK returns the k least machines of ms under less, in order, reusing
// ms's storage. less must be a total order (every ordering here ends in
// lessLoad's ID tie-break), so the result is the first k of a full sort of
// ms, but it costs O(n log k) rather than O(n log n): a bounded max-heap of
// the k least seen so far, sorted at the end.
func leastK(ms []*Machine, k int, less func(a, b *Machine) bool) []*Machine {
	if k > len(ms) {
		k = len(ms)
	}
	h := ms[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
	for _, m := range ms[k:] {
		if k > 0 && less(m, h[0]) {
			h[0] = m
			siftDown(h, 0, less)
		}
	}
	sort.Slice(h, func(i, j int) bool { return less(h[i], h[j]) })
	return h
}

// siftDown restores the max-heap order (under less) of h below slot i.
func siftDown(h []*Machine, i int, less func(a, b *Machine) bool) {
	for {
		big := i
		if l := 2*i + 1; l < len(h) && less(h[big], h[l]) {
			big = l
		}
		if r := 2*i + 2; r < len(h) && less(h[big], h[r]) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// placeBatch assigns every batch task to a machine under the policy and
// emits one summarizing fleet.place event.
func (f *Fleet) placeBatch(rng *rand.Rand, x *loadIndex) {
	if f.cfg.BatchTasks == 0 {
		return
	}
	placed := 0
	for t := 0; t < f.cfg.BatchTasks; t++ {
		if m := f.pickBatchMachine(rng, x); m != nil {
			m.Batch++
			x.update(m)
			placed++
		}
	}
	if f.cfg.Events.Enabled() {
		f.cfg.Events.Emit(0, events.FleetPlace, "fleet", map[string]any{
			"batch_tasks": placed,
			"requested":   f.cfg.BatchTasks,
			"policy":      string(f.cfg.Policy),
		})
	}
}

// pickBatchMachine selects the machine for one batch task, or nil when the
// whole fleet is at the per-machine batch cap. Every candidate set is the
// top of one load heap or the least of them; a watermark test on that top
// is exact, because it is monotone in the heap's load key.
func (f *Fleet) pickBatchMachine(rng *rand.Rand, x *loadIndex) *Machine {
	switch f.cfg.Policy {
	case PolicyRandom:
		// Rejection-sample a machine with batch headroom; bail to the
		// least-loaded machine when the fleet is nearly full so placement
		// always ends.
		for try := 0; try < 4*len(f.machines); try++ {
			m := &f.machines[rng.Intn(len(f.machines))]
			if m.Batch < MaxBatchPerMach {
				return m
			}
		}
		return x.least()
	case PolicyBandwidth:
		return x.least()
	case PolicyDistress:
		// Prefer machines that stay below the watermark and host no
		// worker; then below-watermark worker machines; then any headroom.
		if m := belowMark(x.top(classFree)); m != nil {
			return m
		}
		if m := belowMark(x.least()); m != nil {
			return m
		}
		return x.least()
	case PolicyKelpAware:
		// Colocate onto Kelp-protected worker machines first, watermark be
		// damned — node-level QoS keeps the ML side safe, and the
		// saturation pass afterwards trims overloaded machines back (the
		// colocate-then-trim loop). Overflow to idle-ish non-worker
		// machines, then anywhere with headroom.
		if m := x.top(classKelpWorker); m != nil {
			return m
		}
		if m := belowMark(x.top(classFree)); m != nil {
			return m
		}
		return x.least()
	}
	return nil
}

// belowMark returns m if one more batch task keeps it at or below the
// saturation watermark, else nil.
func belowMark(m *Machine) *Machine {
	if m == nil || m.estLoad()+batchLoadEst > SaturateMark {
		return nil
	}
	return m
}

// saturationPass inspects every worker machine's estimated load. Machines
// across the watermark emit machine.saturate; under the distress-aware
// policies (PolicyDistress, PolicyKelpAware) their batch tasks are then
// evicted down to the watermark and rebalanced onto best-effort-only
// machines — on a distressed ML machine, batch is either throttled to
// scraps (Kelp) or poisoning the worker (Baseline), so even a busier
// machine with no SLO to protect is a strictly better home. For the
// Kelp-aware policy this is the trim half of its colocate-then-trim loop;
// random and plain bin-packing keep their saturating placements, which is
// exactly the contrast the fleet study measures.
func (f *Fleet) saturationPass(x *loadIndex) {
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
			// The least-loaded best-effort-only machine with batch
			// capacity: it keeps watermark headroom if any such machine
			// does.
			dst := x.top(classFree)
			if dst == nil {
				break
			}
			m.Batch--
			dst.Batch++
			x.update(m)
			x.update(dst)
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

// lessLoad orders machines by census load, lowest ID on ties.
func lessLoad(a, b *Machine) bool {
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	return a.ID < b.ID
}

// Machine classes of the load index. A machine's class is fixed once jobs
// are placed: batch placement and the rebalance pass only move Batch.
const (
	classFree       = iota // no worker (Job < 0)
	classKelpWorker        // worker on a Kelp-on machine
	classOffWorker         // worker on a Kelp-off machine
	numClasses
)

// classOf returns the machine's load-index class.
func classOf(m *Machine) int {
	switch {
	case m.Job < 0:
		return classFree
	case m.KelpOn:
		return classKelpWorker
	default:
		return classOffWorker
	}
}

// loadIndex holds one indexed min-heap per machine class over the machines
// with batch headroom (Batch < MaxBatchPerMach), keyed by (estLoad, ID) —
// the order a linear scan for the least-loaded machine would pick in. Each
// heap slot carries its machine's key, so ordering reads no Machine.
// Callers report every Batch change through update, which refreshes the
// key.
type loadIndex struct {
	// ms is the fleet's machines, indexed by ID.
	ms    []Machine
	heaps [numClasses][]loadSlot
	// pos maps a machine ID to its slot in its class's heap, -1 when
	// absent.
	pos []int32
}

// loadSlot is a heap slot: a machine ID and its (estLoad, ID) key.
type loadSlot struct {
	load float64
	id   int32
}

// less orders slots by placement-time load estimate, lowest ID on ties.
func (a loadSlot) less(b loadSlot) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	return a.id < b.id
}

// newLoadIndex indexes the placed machines' batch headroom.
func newLoadIndex(ms []Machine) *loadIndex {
	x := &loadIndex{ms: ms, pos: make([]int32, len(ms))}
	var n [numClasses]int
	for i := range ms {
		n[classOf(&ms[i])]++
	}
	for c := range x.heaps {
		x.heaps[c] = make([]loadSlot, 0, n[c])
	}
	for i := range ms {
		m := &ms[i]
		x.pos[i] = -1
		if m.Batch < MaxBatchPerMach {
			c := classOf(m)
			x.pos[i] = int32(len(x.heaps[c]))
			x.heaps[c] = append(x.heaps[c], loadSlot{m.estLoad(), int32(i)})
		}
	}
	for c := range x.heaps {
		for i := len(x.heaps[c])/2 - 1; i >= 0; i-- {
			x.down(c, i)
		}
	}
	return x
}

// top returns the least-loaded machine with headroom in class c, or nil.
func (x *loadIndex) top(c int) *Machine {
	if len(x.heaps[c]) == 0 {
		return nil
	}
	return &x.ms[x.heaps[c][0].id]
}

// least returns the least-loaded machine with headroom in any class, or
// nil when the whole fleet is at the batch cap.
func (x *loadIndex) least() *Machine {
	best := -1
	for c, h := range x.heaps {
		if len(h) > 0 && (best < 0 || h[0].less(x.heaps[best][0])) {
			best = c
		}
	}
	if best < 0 {
		return nil
	}
	return x.top(best)
}

// update restores the index after m.Batch changed: m's key is refreshed
// and re-sifted, or m leaves or rejoins its heap as it crosses the batch
// cap.
func (x *loadIndex) update(m *Machine) {
	c := classOf(m)
	h := x.heaps[c]
	i := int(x.pos[m.ID])
	switch {
	case i < 0 && m.Batch < MaxBatchPerMach:
		i = len(h)
		x.heaps[c] = append(h, loadSlot{m.estLoad(), int32(m.ID)})
		x.pos[m.ID] = int32(i)
		x.up(c, i)
	case i >= 0 && m.Batch >= MaxBatchPerMach:
		last := len(h) - 1
		x.swap(c, i, last)
		x.heaps[c] = h[:last]
		x.pos[m.ID] = -1
		if i < last {
			x.fix(c, i)
		}
	case i >= 0:
		h[i].load = m.estLoad()
		x.fix(c, i)
	}
}

// fix re-sifts slot i of class c's heap after its key changed.
func (x *loadIndex) fix(c, i int) {
	if !x.down(c, i) {
		x.up(c, i)
	}
}

// up sifts slot i of class c's heap toward the root.
func (x *loadIndex) up(c, i int) {
	h := x.heaps[c]
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			return
		}
		x.swap(c, i, p)
		i = p
	}
}

// down sifts slot i of class c's heap toward the leaves and reports
// whether it moved.
func (x *loadIndex) down(c, i int) bool {
	h := x.heaps[c]
	start := i
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		least := l
		if r := l + 1; r < len(h) && h[r].less(h[l]) {
			least = r
		}
		if !h[least].less(h[i]) {
			break
		}
		x.swap(c, i, least)
		i = least
	}
	return i > start
}

// swap exchanges slots i and j of class c's heap.
func (x *loadIndex) swap(c, i, j int) {
	h := x.heaps[c]
	h[i], h[j] = h[j], h[i]
	x.pos[h[i].id] = int32(i)
	x.pos[h[j].id] = int32(j)
}
