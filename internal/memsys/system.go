package memsys

import (
	"fmt"
	"math"

	"kelp/internal/events"
)

// System resolves memory traffic for a configured node. It is stateless
// between steps except for caching the last resolution for inspection,
// a reusable scratch arena that makes steady-state Resolve allocation-free
// and remembers the fixed points of the last few distinct flow sets, and,
// when a flight recorder is attached, the per-controller signal state used
// to detect distress and saturation transitions.
type System struct {
	cfg  Config
	last *Resolution

	// arena holds every intermediate buffer Resolve needs, sized once per
	// flow-set shape and reused across calls, and the resolution slots.
	// Resolve is the innermost loop of every experiment (10,000 calls per
	// simulated second per cell), so the hot path must not allocate in
	// steady state; see docs/PERFORMANCE.md.
	arena arena

	// epoch counts configuration mutations (SetSNC, SetFineGrainedQoS), so
	// a remembered fixed point is never returned under another
	// configuration.
	epoch uint64
	// resolveSeq counts fixed-point computations; each stamps its
	// Resolution so downstream caches (perfmon) can tell a remembered
	// repeat from a recompute that landed on a reused slot.
	resolveSeq uint64

	// events, when non-nil, receives distress assert/deassert and
	// saturation-crossing transitions; now supplies the simulated
	// timestamp (the node wires it to its engine clock).
	events *events.Recorder
	now    func() float64
	// prevDistress / prevSaturated track each controller's signal state at
	// the previous resolution, so only transitions are emitted.
	prevDistress  []bool
	prevSaturated []bool
}

// memoSlots is how many distinct flow sets a System remembers the fixed
// points of. A node's flow set cycles through a few shapes (an ML task's
// phases, a burst's edges), so most Resolve calls repeat one of the last
// few; eight slots catch nearly all of those repeats.
const memoSlots = 8

// slot is one remembered fixed point: the resolution, a copy of the flows
// it was computed from and the configuration epoch it was computed under.
type slot struct {
	res   Resolution
	flows []Flow
	epoch uint64
	// used is the arena clock at the slot's last Resolve, 0 while empty.
	used uint64
}

// arena is the scratch space of one System. Buffers grow to the largest
// shape seen and are then reused. Resolutions live in a ring of slots, and
// a recompute overwrites the least recently used one. The slot in use is
// the most recently used, so it is never the one overwritten, and the value
// returned by one Resolve (and by Last) stays valid until at least the
// second-following Resolve — the same caller-must-copy ownership rule as
// the policy controllers' History() slices. Callers that retain a
// resolution longer must Clone it.
type arena struct {
	slots [memoSlots]slot
	clock uint64

	hit, dram                     []float64
	offeredHi, offeredLo          []float64
	linkOffered, linkCap          []float64
	linkGrant, linkAdder          []float64
	gHi, gLo, latHi, latLo        []float64
	llcIdx                        []int
	llcWayFootprint, llcWayWeight []float64
}

// growF returns buf resliced to n zeroed elements, reallocating only when
// capacity is insufficient. The explicit clear loop compiles to memclr.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// sizedF is growF without the zeroing, for buffers every element of which
// is unconditionally assigned before being read.
func sizedF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// NewSystem returns a memory system for cfg.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg}, nil
}

// MustSystem is NewSystem that panics on an invalid configuration.
func MustSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// SetSNC enables or disables NUMA subdomains (SNC/CoD). On real hardware
// this is a boot-time BIOS option; the simulator allows it per scenario.
func (s *System) SetSNC(on bool) {
	s.cfg.SNCEnabled = on
	s.epoch++
}

// SetFineGrainedQoS toggles the proposed hardware request-level memory
// isolation (paper §VI-C/D).
func (s *System) SetFineGrainedQoS(on bool) {
	s.cfg.FineGrainedQoS = on
	s.epoch++
}

// Epoch returns the configuration epoch, incremented by every mutation of
// the system configuration (SetSNC, SetFineGrainedQoS). Callers that cache
// state derived from a Resolution — the node's offer horizon — compare
// epochs to detect that cached results are stale.
func (s *System) Epoch() uint64 { return s.epoch }

// SetLast installs a resolution as the cached last fixed-point — the
// warm-start restore hook, used when a node snapshot is restored and the
// controllers' next sample must read the pre-snapshot state via Last().
// The resolution should be detached from any arena (Clone it first).
func (s *System) SetLast(r *Resolution) { s.last = r }

// Last returns the most recent resolution, or nil before the first step.
// The returned value is owned by the System and remains valid until the
// second-following Resolve call (a recompute overwrites the least recently
// used slot); callers that retain it longer must Clone it.
func (s *System) Last() *Resolution { return s.last }

// SetEvents attaches a flight recorder; now supplies the simulated
// timestamp stamped on each event. Distress assert/deassert and
// saturation-crossing transitions are emitted per controller from the next
// Resolve on. A nil recorder detaches (and resets the transition state).
func (s *System) SetEvents(rec *events.Recorder, now func() float64) {
	if rec == nil || now == nil {
		s.events, s.now = nil, nil
		s.prevDistress, s.prevSaturated = nil, nil
		return
	}
	s.events, s.now = rec, now
}

// emitTransitions compares each controller's distress and saturation state
// against the previous resolution and emits one event per edge. The
// distress signal has no hysteresis: it asserts the moment utilization
// exceeds cfg.DistressThreshold and deasserts the moment it falls back
// (docs/MODEL.md §4); any smoothing happens at the policy layer's
// watermarks, not here.
func (s *System) emitTransitions(controllers []ControllerState) {
	if s.prevDistress == nil {
		s.prevDistress = make([]bool, len(controllers))
		s.prevSaturated = make([]bool, len(controllers))
	}
	now := s.now()
	for c, st := range controllers {
		asserted := st.Distress > 0
		if asserted != s.prevDistress[c] {
			typ := events.DistressDeassert
			if asserted {
				typ = events.DistressAssert
			}
			s.events.Emit(now, typ, "memsys", map[string]any{
				"socket":      st.Socket,
				"controller":  st.Index,
				"utilization": st.Utilization,
				"distress":    st.Distress,
				"threshold":   s.cfg.DistressThreshold,
			})
			s.prevDistress[c] = asserted
		}
		saturated := st.Utilization >= 1
		if saturated != s.prevSaturated[c] {
			s.events.Emit(now, events.SaturationCross, "memsys", map[string]any{
				"socket":      st.Socket,
				"controller":  st.Index,
				"utilization": st.Utilization,
				"above":       saturated,
			})
			s.prevSaturated[c] = saturated
		}
	}
}

// queueLatency returns the loaded latency multiplier for utilization u.
func (s *System) queueLatency(u float64) float64 {
	uc := math.Min(u, 0.97)
	stretch := 1 + s.cfg.QueueGain*uc*uc/(1-uc)
	if stretch > s.cfg.MaxLatencyStretch {
		stretch = s.cfg.MaxLatencyStretch
	}
	return stretch
}

// distress returns the distress duty cycle for utilization u.
func (s *System) distress(u float64) float64 {
	thr := s.cfg.DistressThreshold
	d := (u - thr) / (1 - thr)
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// remoteTarget returns the socket a flow's remote traffic homes to.
func (s *System) remoteTarget(socket int) int {
	return (socket + 1) % s.cfg.Sockets
}

// Resolve computes bandwidth grants, latencies, LLC residency, distress and
// backpressure for one step's flows.
//
// The returned Resolution is owned by the System: it stays valid until the
// second-following Resolve call, after which its buffers may be reused (the
// same ownership rule as the policy controllers' History() slices). Callers
// that retain a resolution across more than one further step must Clone it.
// Steady-state Resolve performs no heap allocation once the scratch arena
// has grown to the flow-set shape (pinned by BenchmarkResolveSteady and
// TestResolveSteadyStateAllocs).
//
// A flow set bitwise equal to one of the last memoSlots distinct sets,
// under the same configuration epoch, returns that set's remembered
// resolution: the same pointer and Seq, the transition emitter run on it,
// so a recorder attached since observes its initial edges. Any other flow
// set is validated and recomputed under a new Seq.
func (s *System) Resolve(flows []Flow) (*Resolution, error) {
	a := &s.arena
	a.clock++
	if sl := a.lookup(flows, s.epoch); sl != nil {
		sl.used = a.clock
		s.settle(&sl.res)
		return &sl.res, nil
	}
	cfg := &s.cfg
	for i := range flows {
		if err := flows[i].validate(cfg); err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
	}

	sl := a.victim()
	sl.used, sl.epoch = a.clock, s.epoch
	sl.flows = append(sl.flows[:0], flows...)
	nCtl := cfg.Sockets * cfg.ControllersPerSocket
	res := &sl.res
	if cap(res.Flows) < len(flows) {
		res.Flows = make([]FlowResult, len(flows))
	}
	res.Flows = res.Flows[:len(flows)]
	if cap(res.Controllers) < nCtl {
		res.Controllers = make([]ControllerState, nCtl)
	}
	res.Controllers = res.Controllers[:nCtl]
	res.SocketBackpressure = sizedF(res.SocketBackpressure, cfg.Sockets)
	res.SocketSnoop = sizedF(res.SocketSnoop, cfg.Sockets)
	res.Links = res.Links[:0]
	res.cps = cfg.ControllersPerSocket
	s.resolveSeq++
	res.seq = s.resolveSeq

	// 1. LLC residency per socket.
	hit := sizedF(a.hit, len(flows))
	a.hit = hit
	for sock := 0; sock < cfg.Sockets; sock++ {
		idx := a.llcIdx[:0]
		for i := range flows {
			if flows[i].Socket == sock {
				idx = append(idx, i)
			}
		}
		a.llcIdx = idx
		resolveLLC(cfg, flows, idx, hit, a)
	}

	// 2. Route DRAM traffic to controllers and the interconnect. Traffic
	// is tracked per priority class so the fine-grained QoS mode can serve
	// high-priority requests first; with the mode off the classes are
	// granted identically. A flow's local routing is derived from the flow
	// itself (its home controller under SNC, the socket's controllers
	// interleaved otherwise), so no per-flow route records are built.
	offeredHi := growF(a.offeredHi, nCtl)
	offeredLo := growF(a.offeredLo, nCtl)
	linkOffered := growF(a.linkOffered, cfg.Sockets) // by source socket
	dram := sizedF(a.dram, len(flows))
	a.offeredHi, a.offeredLo, a.linkOffered, a.dram = offeredHi, offeredLo, linkOffered, dram
	isHi := func(f *Flow) bool { return cfg.FineGrainedQoS && f.HighPriority }
	addOffered := func(f *Flow, c int, v float64) {
		if isHi(f) {
			offeredHi[c] += v
		} else {
			offeredLo[c] += v
		}
	}

	ctlIndex := func(sock, idx int) int { return sock*cfg.ControllersPerSocket + idx }

	// First pass: demands, local routing, and total link load per source
	// socket. Remote traffic is not yet assigned to the home controllers:
	// the interconnect caps what actually arrives, so inbound traffic must
	// be scaled by the link's grant ratio first.
	for i := range flows {
		f := &flows[i]
		d := f.DemandBW + (1-hit[i])*f.LLCRefBW
		dram[i] = d
		local := d * (1 - f.RemoteFrac)
		remote := d * f.RemoteFrac

		if cfg.SNCEnabled {
			addOffered(f, ctlIndex(f.Socket, f.Subdomain), local)
		} else {
			share := local * (1 / float64(cfg.ControllersPerSocket))
			for c := 0; c < cfg.ControllersPerSocket; c++ {
				addOffered(f, ctlIndex(f.Socket, c), share)
			}
		}
		if remote > 0 && cfg.Sockets > 1 {
			linkOffered[f.Socket] += remote
		}
	}

	// Second pass: deliver link-capped remote traffic to home controllers.
	linkCap := sizedF(a.linkCap, cfg.Sockets)
	a.linkCap = linkCap
	for sock := range linkCap {
		linkCap[sock] = 1
		if linkOffered[sock] > cfg.LinkBW {
			linkCap[sock] = cfg.LinkBW / linkOffered[sock]
		}
	}
	for i := range flows {
		f := &flows[i]
		remote := dram[i] * f.RemoteFrac
		if remote <= 0 || cfg.Sockets < 2 {
			continue
		}
		tgt := s.remoteTarget(f.Socket)
		delivered := remote * linkCap[f.Socket]
		for c := 0; c < cfg.ControllersPerSocket; c++ {
			addOffered(f, ctlIndex(tgt, c), delivered/float64(cfg.ControllersPerSocket))
		}
	}

	// 3. Controller states and per-class grant ratios / latencies.
	gHi := sizedF(a.gHi, nCtl)
	gLo := sizedF(a.gLo, nCtl)
	latHi := sizedF(a.latHi, nCtl)
	latLo := sizedF(a.latLo, nCtl)
	a.gHi, a.gLo, a.latHi, a.latLo = gHi, gLo, latHi, latLo
	for c := 0; c < nCtl; c++ {
		capac := cfg.BWPerController
		offHi, offLo := offeredHi[c], offeredLo[c]
		total := offHi + offLo
		u := total / capac
		latTotal := cfg.BaseLatency * s.queueLatency(u)

		if cfg.FineGrainedQoS {
			// Strict priority with an MBA-style floor for low priority.
			reserve := capac * cfg.FineGrainedLowShare
			if offLo < reserve {
				reserve = offLo
			}
			hiCap := capac - reserve
			gHi[c] = 1
			if offHi > hiCap {
				gHi[c] = hiCap / offHi
			}
			grantedHi := offHi * gHi[c]
			rem := capac - grantedHi
			gLo[c] = 1
			if offLo > rem {
				gLo[c] = rem / offLo
			}
			// Prioritized requests bypass the shared queue: their latency
			// tracks high-priority load only; low priority sees the full
			// queue.
			latHi[c] = cfg.BaseLatency * s.queueLatency(offHi/capac)
			latLo[c] = latTotal
		} else {
			g := 1.0
			if total > capac {
				g = capac / total
			}
			gHi[c], gLo[c] = g, g
			latHi[c], latLo[c] = latTotal, latTotal
		}

		res.Controllers[c] = ControllerState{
			Socket:      c / cfg.ControllersPerSocket,
			Index:       c % cfg.ControllersPerSocket,
			Offered:     total,
			Granted:     offHi*gHi[c] + offLo*gLo[c],
			Capacity:    capac,
			Utilization: u,
			Latency:     latLo[c],
			Distress:    s.distress(u),
		}
	}

	// 4. Link states (one per source socket with traffic).
	linkGrant := sizedF(a.linkGrant, cfg.Sockets)
	linkAdder := sizedF(a.linkAdder, cfg.Sockets)
	a.linkGrant, a.linkAdder = linkGrant, linkAdder
	for sock := 0; sock < cfg.Sockets; sock++ {
		linkGrant[sock] = 1
		linkAdder[sock] = 0
		if linkOffered[sock] <= 0 {
			continue
		}
		u := linkOffered[sock] / cfg.LinkBW
		linkGrant[sock] = math.Min(1, cfg.LinkBW/linkOffered[sock])
		adder := cfg.LinkLatency * s.queueLatency(u) * cfg.CoherenceFactor
		linkAdder[sock] = adder
		res.Links = append(res.Links, LinkState{
			From:        sock,
			To:          s.remoteTarget(sock),
			Offered:     linkOffered[sock],
			Capacity:    cfg.LinkBW,
			Utilization: u,
			Adder:       adder,
		})
	}

	// 5. Socket backpressure: the distress signal broadcasts to every core
	// on the socket, regardless of subdomain (paper §IV-B). Cross-socket
	// coherence traffic additionally stalls every core on both endpoint
	// sockets (paper §VI-A) in proportion to link load.
	for sock := 0; sock < cfg.Sockets; sock++ {
		res.SocketBackpressure[sock] = 1 - cfg.MaxBackpressure*res.MaxDistress(sock)
		crossing := linkOffered[sock]
		if cfg.Sockets == 2 {
			crossing += linkOffered[1-sock]
		}
		load := math.Min(crossing/cfg.LinkBW, 1.5)
		snoop := 1 + cfg.RemoteSnoopPenalty*load*(cfg.CoherenceFactor-1)
		// Snoop stalls saturate: once every access waits behind an ordered
		// snoop the marginal cost of more link traffic flattens.
		if snoop > 6.0 {
			snoop = 6.0
		}
		res.SocketSnoop[sock] = snoop
	}

	// 6. Per-flow results, using the flow's priority class. The local
	// routing mirrors pass 1: the home controller under SNC, the socket's
	// controllers in equal shares otherwise.
	for i := range flows {
		f := &flows[i]
		classG, classLat := gLo, latLo
		if isHi(f) {
			classG, classLat = gHi, latHi
		}
		var gLocal, latLocal float64
		if cfg.SNCEnabled {
			c := ctlIndex(f.Socket, f.Subdomain)
			gLocal = classG[c]
			latLocal = classLat[c]
		} else {
			share := 1 / float64(cfg.ControllersPerSocket)
			for c := 0; c < cfg.ControllersPerSocket; c++ {
				ci := ctlIndex(f.Socket, c)
				gLocal += classG[ci] * share
				latLocal += classLat[ci] * share
			}
		}
		if cfg.SNCEnabled {
			latLocal *= cfg.SNCLocalLatencyFactor
		}

		gRemote, latRemote := 1.0, 0.0
		if f.RemoteFrac > 0 && cfg.Sockets > 1 {
			tgt := s.remoteTarget(f.Socket)
			var g, lat float64
			for c := 0; c < cfg.ControllersPerSocket; c++ {
				ci := ctlIndex(tgt, c)
				g += classG[ci]
				lat += classLat[ci]
			}
			g /= float64(cfg.ControllersPerSocket)
			lat /= float64(cfg.ControllersPerSocket)
			// Remote grants pass two bottlenecks in series: the link caps
			// delivery, then the home controllers grant a share of what
			// arrived.
			gRemote = g * linkGrant[f.Socket]
			latRemote = lat*cfg.CoherenceFactor + linkAdder[f.Socket]
			if linkAdder[f.Socket] == 0 {
				latRemote = lat*cfg.CoherenceFactor + cfg.LinkLatency*cfg.CoherenceFactor
			}
		}

		rf := f.RemoteFrac
		granted := dram[i] * ((1-rf)*gLocal + rf*gRemote)
		lat := (1-rf)*latLocal + rf*latRemote
		if dram[i] == 0 {
			// No DRAM traffic: the flow still observes unloaded latency.
			lat = latLocal
			if rf > 0 {
				lat = (1-rf)*latLocal + rf*latRemote
			}
		}
		bwFrac := 1.0
		if dram[i] > 0 {
			bwFrac = granted / dram[i]
		}
		bp := res.SocketBackpressure[f.Socket]
		if isHi(f) {
			// §VI-C: the fine-grained mechanism sends backpressure to the
			// offending threads only; prioritized cores are exempt.
			bp = 1
		}
		res.Flows[i] = FlowResult{
			DRAMTraffic:    dram[i],
			Granted:        granted,
			BWFraction:     bwFrac,
			Latency:        lat,
			LatencyStretch: lat / cfg.BaseLatency,
			LLCHit:         hit[i],
			Backpressure:   bp,
			SnoopStretch:   res.SocketSnoop[f.Socket],
		}
	}

	s.settle(res)
	return res, nil
}

// settle makes res, computed or remembered under the current epoch, the
// cached last fixed point, and emits its transitions.
func (s *System) settle(res *Resolution) {
	if s.events != nil {
		s.emitTransitions(res.Controllers)
	}
	s.last = res
}

// lookup returns the slot remembering flows under epoch, or nil.
func (a *arena) lookup(flows []Flow, epoch uint64) *slot {
	for i := range a.slots {
		sl := &a.slots[i]
		if sl.used != 0 && sl.epoch == epoch && sameFlows(sl.flows, flows) {
			return sl
		}
	}
	return nil
}

// victim returns the least recently used slot, an empty one first.
func (a *arena) victim() *slot {
	v := &a.slots[0]
	for i := 1; i < len(a.slots); i++ {
		if a.slots[i].used < v.used {
			v = &a.slots[i]
		}
	}
	return v
}

// sameFlows reports whether two flow sets are bitwise equal: floats
// compare by bit pattern, so +0 and -0 differ and a NaN equals itself.
func sameFlows(a, b []Flow) bool {
	if len(a) != len(b) {
		return false
	}
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		x, y := &a[i], &b[i]
		if !bitsEq(x.DemandBW, y.DemandBW) || !bitsEq(x.LLCRefBW, y.LLCRefBW) ||
			!bitsEq(x.RemoteFrac, y.RemoteFrac) || !bitsEq(x.LLCFootprint, y.LLCFootprint) ||
			x.Socket != y.Socket || x.Subdomain != y.Subdomain ||
			x.LLCWayMask != y.LLCWayMask || x.HighPriority != y.HighPriority || x.Task != y.Task {
			return false
		}
	}
	return true
}
