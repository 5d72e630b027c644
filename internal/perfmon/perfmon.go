// Package perfmon models the performance-monitoring infrastructure Kelp
// samples: socket-level memory bandwidth, loaded memory latency, memory
// saturation (the duty cycle of the uncore distress signal, the paper's
// FAST_ASSERTED event), and per-controller (per-subdomain) bandwidth.
//
// A Monitor integrates per-step memory-system resolutions; controllers call
// Window to obtain averages since their previous read, mirroring how a
// runtime reads PMU deltas between samples.
package perfmon

import (
	"fmt"
	"math"

	"kelp/internal/memsys"
	"kelp/internal/sim"
)

// Sample is one windowed counter read.
type Sample struct {
	// Elapsed is the window length in simulated seconds.
	Elapsed float64
	// SocketBW is average granted bandwidth per socket, bytes/s.
	SocketBW []float64
	// SocketOfferedBW is average offered (demanded) bandwidth per socket.
	SocketOfferedBW []float64
	// SocketLatency is the time-averaged loaded memory latency per socket,
	// seconds.
	SocketLatency []float64
	// SocketSaturation is the average distress duty cycle per socket in
	// [0, 1] — what Kelp derives from FAST_ASSERTED / elapsed cycles.
	SocketSaturation []float64
	// SocketBackpressure is the average execution-rate multiplier imposed
	// by backpressure per socket.
	SocketBackpressure []float64
	// ControllerBW[socket][ctl] is average granted bandwidth per memory
	// controller — per NUMA subdomain when SNC is on. This is the
	// "high-priority subdomain bandwidth" measurement of Algorithm 1.
	ControllerBW [][]float64
	// ControllerLatency[socket][ctl] is the time-averaged loaded latency
	// per controller, seconds — per-subdomain latency under SNC.
	ControllerLatency [][]float64
}

// SubdomainBW returns the sampled bandwidth of (socket, subdomain).
func (s Sample) SubdomainBW(socket, subdomain int) float64 {
	if socket < 0 || socket >= len(s.ControllerBW) {
		return 0
	}
	ctls := s.ControllerBW[socket]
	if subdomain < 0 || subdomain >= len(ctls) {
		return 0
	}
	return ctls[subdomain]
}

// Bounds are optional plausibility limits for Sample.Check, expressed in
// the sample's own units. Zero fields disable the corresponding bound.
// Controllers derive them from their watermarks so a glitched counter that
// reads far outside any actionable range is rejected rather than acted on.
type Bounds struct {
	// MaxBW bounds every bandwidth reading (socket and per-controller),
	// bytes/s.
	MaxBW float64
	// MaxLatency bounds every loaded-latency reading, seconds.
	MaxLatency float64
}

// Check reports whether the sample is fit to act on: every reading must be
// finite and non-negative, saturation must be a duty cycle in [0, 1], and
// readings must fall inside the optional bounds. A controller that receives
// an error here should hold its last good decision rather than actuate on
// garbage (the paper's runtime trusts PMU deltas; a hardened one cannot).
func (s Sample) Check(b Bounds) error {
	if math.IsNaN(s.Elapsed) || s.Elapsed < 0 {
		return fmt.Errorf("perfmon: elapsed = %v", s.Elapsed)
	}
	if err := checkVals("socket_bw", -1, s.SocketBW, b.MaxBW); err != nil {
		return err
	}
	if err := checkVals("socket_latency", -1, s.SocketLatency, b.MaxLatency); err != nil {
		return err
	}
	for i, v := range s.SocketSaturation {
		if math.IsNaN(v) || v < 0 || v > 1+1e-9 {
			return fmt.Errorf("perfmon: saturation[%d] = %v outside [0, 1]", i, v)
		}
	}
	for sock, vals := range s.ControllerBW {
		if err := checkVals("controller_bw", sock, vals, b.MaxBW); err != nil {
			return err
		}
	}
	for sock, vals := range s.ControllerLatency {
		if err := checkVals("controller_latency", sock, vals, b.MaxLatency); err != nil {
			return err
		}
	}
	return nil
}

// checkVals reports the first of vals that is not finite, is negative, or
// exceeds max (when max > 0). The metric is name, or name[row] for one
// socket's per-controller row (row >= 0); its label is formatted only on
// failure, so a passing Check does not allocate.
func checkVals(name string, row int, vals []float64, max float64) error {
	for i, v := range vals {
		if !(math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (max > 0 && v > max)) {
			continue
		}
		if row >= 0 {
			name = fmt.Sprintf("%s[%d]", name, row)
		}
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("perfmon: %s[%d] = %v", name, i, v)
		case v < 0:
			return fmt.Errorf("perfmon: %s[%d] = %v is negative", name, i, v)
		default:
			return fmt.Errorf("perfmon: %s[%d] = %v exceeds bound %v", name, i, v, max)
		}
	}
	return nil
}

// SubdomainLatency returns the sampled loaded latency of (socket,
// subdomain), seconds.
func (s Sample) SubdomainLatency(socket, subdomain int) float64 {
	if socket < 0 || socket >= len(s.ControllerLatency) {
		return 0
	}
	ctls := s.ControllerLatency[socket]
	if subdomain < 0 || subdomain >= len(ctls) {
		return 0
	}
	return ctls[subdomain]
}

// Monitor accumulates memory-system observations.
type Monitor struct {
	sockets int
	cps     int

	// Windowed integrals: value × seconds since the previous Window.
	elapsed float64
	bw      []float64
	offered []float64
	lat     []float64
	sat     []float64
	bp      []float64
	ctlBW   [][]float64
	ctlLat  [][]float64

	// Cumulative totals (never reset) for end-of-run reporting.
	totalBytes []float64

	// Rate cache: the per-second values derived from the last distinct
	// resolution, so steady-state recording (the same resolution integrated
	// tick after tick while the memory system's memo returns it) reduces to
	// multiply-adds. Keyed on (pointer, seq) — pointer identity alone is
	// ambiguous because a recompute reuses a memo slot's buffers.
	lastRes    *memsys.Resolution
	lastSeq    uint64
	rateBW     []float64
	rateOff    []float64
	rateLat    []float64
	rateSat    []float64
	rateBP     []float64
	rateCtlBW  []float64 // socket-major, sockets*cps
	rateCtlLat []float64
}

// NewMonitor returns a monitor for a node with the given socket count and
// controllers per socket.
func NewMonitor(sockets, controllersPerSocket int) (*Monitor, error) {
	if sockets < 1 || controllersPerSocket < 1 {
		return nil, fmt.Errorf("perfmon: bad shape %dx%d", sockets, controllersPerSocket)
	}
	m := &Monitor{
		sockets:    sockets,
		cps:        controllersPerSocket,
		bw:         make([]float64, sockets),
		offered:    make([]float64, sockets),
		lat:        make([]float64, sockets),
		sat:        make([]float64, sockets),
		bp:         make([]float64, sockets),
		ctlBW:      make([][]float64, sockets),
		totalBytes: make([]float64, sockets),
		rateBW:     make([]float64, sockets),
		rateOff:    make([]float64, sockets),
		rateLat:    make([]float64, sockets),
		rateSat:    make([]float64, sockets),
		rateBP:     make([]float64, sockets),
		rateCtlBW:  make([]float64, sockets*controllersPerSocket),
		rateCtlLat: make([]float64, sockets*controllersPerSocket),
	}
	m.ctlLat = make([][]float64, sockets)
	for s := range m.ctlBW {
		m.ctlBW[s] = make([]float64, controllersPerSocket)
		m.ctlLat[s] = make([]float64, controllersPerSocket)
	}
	return m, nil
}

// MustMonitor is NewMonitor that panics on invalid shape.
func MustMonitor(sockets, controllersPerSocket int) *Monitor {
	m, err := NewMonitor(sockets, controllersPerSocket)
	if err != nil {
		panic(err)
	}
	return m
}

// Record integrates one step's resolution over dt seconds. Deriving the
// per-second values from the resolution is the expensive part (per-socket
// aggregations over flows and controllers); they are cached and reused
// while the same resolution repeats, which while the memory system's memo
// returns it is every steady-state tick. Seq 0 marks a hand-constructed resolution with
// no computation stamp — those are re-derived every call, since the caller
// may mutate them in place between Records.
func (m *Monitor) Record(dt float64, res *memsys.Resolution) {
	if res == nil || dt <= 0 {
		return
	}
	if !m.cached(res) {
		m.cacheRates(res)
	}
	m.elapsed += dt
	for s := 0; s < m.sockets; s++ {
		m.bw[s] += m.rateBW[s] * dt
		m.offered[s] += m.rateOff[s] * dt
		m.lat[s] += m.rateLat[s] * dt
		m.sat[s] += m.rateSat[s] * dt
		m.bp[s] += m.rateBP[s] * dt
		m.totalBytes[s] += m.rateBW[s] * dt
		base := s * m.cps
		rateBW := m.rateCtlBW[base : base+m.cps]
		rateLat := m.rateCtlLat[base : base+m.cps]
		bw, lat := m.ctlBW[s][:m.cps], m.ctlLat[s][:m.cps]
		for c, r := range rateBW {
			bw[c] += r * dt
			lat[c] += rateLat[c] * dt
		}
	}
}

// recordFoldMin is the run length from which RecordN folds each
// accumulator with sim.AddN. Below it, the plain adds of all accumulators
// interleaved in one loop, so that the independent add chains overlap,
// beat one fold per accumulator. BenchmarkRecordNPaths times both: the
// fold costs about the same at every length, the loop grows by about 10 ns
// a tick, and the loop stops winning between 20 and 24 ticks. Many
// RecordN calls are shorter than that (in the repository benchmark, 72%
// on sweep, 26% on fleet and 62% on serve), so both paths stay.
const recordFoldMin = 24

// RecordN integrates the same resolution over n consecutive steps of dt
// seconds, bit for bit as n Record calls would: each accumulator takes its
// cached rate×dt n times, folded exactly by sim.AddN on a long run. It
// never multiplies by n, since one rounding of rate×dt×n differs from n
// roundings of the running sum. A one-step run is a plain Record.
func (m *Monitor) RecordN(dt float64, res *memsys.Resolution, n int) {
	if n == 1 {
		m.Record(dt, res)
		return
	}
	if res == nil || dt <= 0 || n <= 0 {
		return
	}
	if !m.cached(res) {
		m.cacheRates(res)
	}
	if n < recordFoldMin {
		m.recordLoop(dt, n)
	} else {
		m.recordFold(dt, n)
	}
}

// recordFold is RecordN's long run: one sim.AddN per accumulator.
func (m *Monitor) recordFold(dt float64, n int) {
	m.elapsed = sim.AddN(m.elapsed, dt, n)
	for s := 0; s < m.sockets; s++ {
		dBW := m.rateBW[s] * dt
		m.bw[s] = sim.AddN(m.bw[s], dBW, n)
		m.offered[s] = sim.AddN(m.offered[s], m.rateOff[s]*dt, n)
		m.lat[s] = sim.AddN(m.lat[s], m.rateLat[s]*dt, n)
		m.sat[s] = sim.AddN(m.sat[s], m.rateSat[s]*dt, n)
		m.bp[s] = sim.AddN(m.bp[s], m.rateBP[s]*dt, n)
		m.totalBytes[s] = sim.AddN(m.totalBytes[s], dBW, n)
		base := s * m.cps
		rateBW := m.rateCtlBW[base : base+m.cps]
		rateLat := m.rateCtlLat[base : base+m.cps]
		ctlBW, ctlLat := m.ctlBW[s][:m.cps], m.ctlLat[s][:m.cps]
		for c, r := range rateBW {
			ctlBW[c] = sim.AddN(ctlBW[c], r*dt, n)
			ctlLat[c] = sim.AddN(ctlLat[c], rateLat[c]*dt, n)
		}
	}
}

// recordLoop is RecordN's short run: n plain adds into each accumulator,
// each held in a local meanwhile, several to a loop.
func (m *Monitor) recordLoop(dt float64, n int) {
	elapsed := m.elapsed
	for range n {
		elapsed += dt
	}
	m.elapsed = elapsed
	for s := 0; s < m.sockets; s++ {
		bw, off, lat, sat, bp, total := m.bw[s], m.offered[s], m.lat[s], m.sat[s], m.bp[s], m.totalBytes[s]
		dBW, dOff, dLat, dSat, dBP := m.rateBW[s]*dt, m.rateOff[s]*dt, m.rateLat[s]*dt, m.rateSat[s]*dt, m.rateBP[s]*dt
		for range n {
			bw += dBW
			off += dOff
			lat += dLat
			sat += dSat
			bp += dBP
			total += dBW
		}
		m.bw[s], m.offered[s], m.lat[s], m.sat[s], m.bp[s], m.totalBytes[s] = bw, off, lat, sat, bp, total
		base := s * m.cps
		rateBW := m.rateCtlBW[base : base+m.cps]
		rateLat := m.rateCtlLat[base : base+m.cps]
		ctlBW, ctlLat := m.ctlBW[s][:m.cps], m.ctlLat[s][:m.cps]
		for c, r := range rateBW {
			bw, lat := ctlBW[c], ctlLat[c]
			dBW, dLat := r*dt, rateLat[c]*dt
			for range n {
				bw += dBW
				lat += dLat
			}
			ctlBW[c], ctlLat[c] = bw, lat
		}
	}
}

// cached reports whether the rate cache was derived from res. A Seq 0
// resolution never counts as cached.
func (m *Monitor) cached(res *memsys.Resolution) bool {
	seq := res.Seq()
	return res == m.lastRes && seq == m.lastSeq && seq != 0
}

// cacheRates derives the per-second recording values from a resolution.
func (m *Monitor) cacheRates(res *memsys.Resolution) {
	m.lastRes, m.lastSeq = res, res.Seq()
	for s := 0; s < m.sockets; s++ {
		m.rateBW[s] = res.SocketGranted(s)
		m.rateOff[s] = res.SocketOffered(s)
		m.rateLat[s] = res.MeanSocketLatency(s)
		m.rateSat[s] = res.MaxDistress(s)
		if s < len(res.SocketBackpressure) {
			m.rateBP[s] = res.SocketBackpressure[s]
		} else {
			m.rateBP[s] = 1
		}
	}
	for i := range m.rateCtlBW {
		m.rateCtlBW[i] = 0
		m.rateCtlLat[i] = 0
	}
	for _, c := range res.Controllers {
		if c.Socket < m.sockets && c.Index < m.cps {
			i := c.Socket*m.cps + c.Index
			m.rateCtlBW[i] += c.Granted
			m.rateCtlLat[i] += c.Latency
		}
	}
}

// Peek returns averages since the previous Window call WITHOUT resetting
// the accumulators — for observers (metrics scrapers) that must not steal
// the controller's window.
func (m *Monitor) Peek() Sample {
	var s Sample
	m.sample(&s, false)
	return s
}

// Window returns averages since the previous Window call and resets the
// windowed accumulators. An empty window returns zeros with Elapsed 0.
func (m *Monitor) Window() Sample {
	var s Sample
	m.sample(&s, true)
	return s
}

// WindowInto is Window written into *dst, reusing dst's slices where they
// have room: a controller that reads its window every period into one
// Sample it owns allocates only on its first read. Every value is
// overwritten, so dst may hold anything a previous read left in it.
func (m *Monitor) WindowInto(dst *Sample) { m.sample(dst, true) }

// sample writes the averages since the previous Window call into *out,
// resetting the windowed accumulators when reset is set.
func (m *Monitor) sample(out *Sample, reset bool) {
	el := m.elapsed
	avg := func(v float64) float64 {
		if el > 0 {
			return v / el
		}
		return 0
	}
	out.Elapsed = el
	out.SocketBW = resize(out.SocketBW, m.sockets)
	out.SocketOfferedBW = resize(out.SocketOfferedBW, m.sockets)
	out.SocketLatency = resize(out.SocketLatency, m.sockets)
	out.SocketSaturation = resize(out.SocketSaturation, m.sockets)
	out.SocketBackpressure = resize(out.SocketBackpressure, m.sockets)
	if cap(out.ControllerBW) < m.sockets {
		out.ControllerBW = make([][]float64, m.sockets)
	}
	if cap(out.ControllerLatency) < m.sockets {
		out.ControllerLatency = make([][]float64, m.sockets)
	}
	out.ControllerBW = out.ControllerBW[:m.sockets]
	out.ControllerLatency = out.ControllerLatency[:m.sockets]
	for s := 0; s < m.sockets; s++ {
		out.SocketBW[s] = avg(m.bw[s])
		out.SocketOfferedBW[s] = avg(m.offered[s])
		out.SocketLatency[s] = avg(m.lat[s])
		out.SocketSaturation[s] = avg(m.sat[s])
		out.SocketBackpressure[s] = avg(m.bp[s])
		ctlBW := resize(out.ControllerBW[s], m.cps)
		ctlLat := resize(out.ControllerLatency[s], m.cps)
		for c := 0; c < m.cps; c++ {
			ctlBW[c] = avg(m.ctlBW[s][c])
			ctlLat[c] = avg(m.ctlLat[s][c])
		}
		out.ControllerBW[s], out.ControllerLatency[s] = ctlBW, ctlLat
		if reset {
			m.bw[s] = 0
			m.offered[s] = 0
			m.lat[s] = 0
			m.sat[s] = 0
			m.bp[s] = 0
			for c := 0; c < m.cps; c++ {
				m.ctlBW[s][c] = 0
				m.ctlLat[s][c] = 0
			}
		}
	}
	if reset {
		m.elapsed = 0
	}
}

// resize returns buf resliced to n elements, reallocating only when its
// capacity is short. The caller overwrites every element.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// State is a snapshot of a monitor's accumulators, used by the node-level
// warm-start snapshot and gob-encoded as is by the durability layer. It
// shares no memory with the monitor. gob moves float64 values by bit
// pattern, so a restored monitor reproduces the exact same averages.
type State struct {
	Sockets, CPS int
	Elapsed      float64
	BW, Offered  []float64
	Lat, Sat, BP []float64
	CtlBW        [][]float64
	CtlLat       [][]float64
	TotalBytes   []float64
}

func cloneRows(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = append([]float64(nil), a[i]...)
	}
	return out
}

// State snapshots the monitor's accumulators.
func (m *Monitor) State() State {
	return State{
		Sockets:    m.sockets,
		CPS:        m.cps,
		Elapsed:    m.elapsed,
		BW:         append([]float64(nil), m.bw...),
		Offered:    append([]float64(nil), m.offered...),
		Lat:        append([]float64(nil), m.lat...),
		Sat:        append([]float64(nil), m.sat...),
		BP:         append([]float64(nil), m.bp...),
		CtlBW:      cloneRows(m.ctlBW),
		CtlLat:     cloneRows(m.ctlLat),
		TotalBytes: append([]float64(nil), m.totalBytes...),
	}
}

// Restore installs a snapshot taken by State on a monitor of the same
// shape. A snapshot whose slices do not match its declared shape (a
// damaged or hand-built one) is rejected before anything is installed.
func (m *Monitor) Restore(st State) error {
	if st.Sockets != m.sockets || st.CPS != m.cps {
		return fmt.Errorf("perfmon: snapshot shape %dx%d, monitor %dx%d",
			st.Sockets, st.CPS, m.sockets, m.cps)
	}
	for _, f := range []struct {
		name string
		v    []float64
	}{
		{"bw", st.BW}, {"offered", st.Offered}, {"lat", st.Lat},
		{"sat", st.Sat}, {"bp", st.BP}, {"total_bytes", st.TotalBytes},
	} {
		if len(f.v) != m.sockets {
			return fmt.Errorf("perfmon: snapshot %s has %d sockets, want %d", f.name, len(f.v), m.sockets)
		}
	}
	if len(st.CtlBW) != m.sockets || len(st.CtlLat) != m.sockets {
		return fmt.Errorf("perfmon: snapshot controller tables have %d/%d sockets, want %d",
			len(st.CtlBW), len(st.CtlLat), m.sockets)
	}
	for s := 0; s < m.sockets; s++ {
		if len(st.CtlBW[s]) != m.cps || len(st.CtlLat[s]) != m.cps {
			return fmt.Errorf("perfmon: snapshot socket %d has %d/%d controllers, want %d",
				s, len(st.CtlBW[s]), len(st.CtlLat[s]), m.cps)
		}
	}
	// The rate cache is derived, not state: drop it so the next Record
	// re-derives from its resolution.
	m.lastRes, m.lastSeq = nil, 0
	m.elapsed = st.Elapsed
	copy(m.bw, st.BW)
	copy(m.offered, st.Offered)
	copy(m.lat, st.Lat)
	copy(m.sat, st.Sat)
	copy(m.bp, st.BP)
	for s := range m.ctlBW {
		copy(m.ctlBW[s], st.CtlBW[s])
		copy(m.ctlLat[s], st.CtlLat[s])
	}
	copy(m.totalBytes, st.TotalBytes)
	return nil
}
