package perfmon

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"kelp/internal/memsys"
)

func TestNewMonitorValidates(t *testing.T) {
	if _, err := NewMonitor(0, 2); err == nil {
		t.Error("0 sockets accepted")
	}
	if _, err := NewMonitor(2, 0); err == nil {
		t.Error("0 controllers accepted")
	}
	if _, err := NewMonitor(2, 2); err != nil {
		t.Error(err)
	}
}

func resolve(t testing.TB, sys *memsys.System, flows []memsys.Flow) *memsys.Resolution {
	t.Helper()
	res, err := sys.Resolve(flows)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWindowAverages(t *testing.T) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)

	r1 := resolve(t, sys, []memsys.Flow{{Task: "a", Socket: 0, DemandBW: 10 * memsys.GB}})
	r2 := resolve(t, sys, []memsys.Flow{{Task: "a", Socket: 0, DemandBW: 30 * memsys.GB}})
	m.Record(1.0, r1)
	m.Record(1.0, r2)

	s := m.Window()
	if math.Abs(s.Elapsed-2.0) > 1e-12 {
		t.Fatalf("Elapsed = %v", s.Elapsed)
	}
	want := 20 * float64(memsys.GB)
	if math.Abs(s.SocketBW[0]-want)/want > 0.01 {
		t.Errorf("SocketBW = %v, want ~%v", s.SocketBW[0], want)
	}
	if s.SocketBW[1] != 0 {
		t.Errorf("socket 1 BW = %v, want 0", s.SocketBW[1])
	}
	if s.SocketLatency[0] <= 0 {
		t.Error("latency should be positive")
	}
	if s.SocketBackpressure[0] <= 0 || s.SocketBackpressure[0] > 1 {
		t.Errorf("backpressure = %v", s.SocketBackpressure[0])
	}
}

func TestWindowResets(t *testing.T) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
	m.Record(1.0, resolve(t, sys, []memsys.Flow{{Task: "a", Socket: 0, DemandBW: memsys.GB}}))
	_ = m.Window()
	s := m.Window()
	if s.Elapsed != 0 || s.SocketBW[0] != 0 {
		t.Errorf("second window not reset: %+v", s)
	}
}

// TestPeekDoesNotResetWindow pins the observer contract the concurrent
// metrics scrapers rely on: Peek is repeatable, and a controller's
// subsequent Window sees the same accumulated interval as if Peek had
// never happened.
func TestPeekDoesNotResetWindow(t *testing.T) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
	m.Record(1.0, resolve(t, sys, []memsys.Flow{{Task: "a", Socket: 0, DemandBW: 10 * memsys.GB}}))
	m.Record(1.0, resolve(t, sys, []memsys.Flow{{Task: "a", Socket: 0, DemandBW: 30 * memsys.GB}}))

	p1 := m.Peek()
	p2 := m.Peek()
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("consecutive Peeks differ:\n%+v\n%+v", p1, p2)
	}
	w := m.Window()
	if !reflect.DeepEqual(p1, w) {
		t.Errorf("Window after Peek differs from Peek:\n%+v\n%+v", p1, w)
	}
	if s := m.Window(); s.Elapsed != 0 {
		t.Errorf("Window after Window not reset: Elapsed = %v", s.Elapsed)
	}
}

// TestZeroElapsedWindowAllZero pins the other scraper-facing invariant: a
// window with nothing recorded returns fully-shaped, all-zero samples —
// including the per-controller arrays — rather than partial or NaN values.
func TestZeroElapsedWindowAllZero(t *testing.T) {
	const sockets, cps = 2, 2
	m := MustMonitor(sockets, cps)
	for name, s := range map[string]Sample{"Peek": m.Peek(), "Window": m.Window()} {
		if s.Elapsed != 0 {
			t.Errorf("%s: Elapsed = %v", name, s.Elapsed)
		}
		if len(s.SocketBW) != sockets || len(s.ControllerBW) != sockets {
			t.Fatalf("%s: bad shape %+v", name, s)
		}
		for sock := 0; sock < sockets; sock++ {
			if s.SocketBW[sock] != 0 || s.SocketOfferedBW[sock] != 0 ||
				s.SocketLatency[sock] != 0 || s.SocketSaturation[sock] != 0 ||
				s.SocketBackpressure[sock] != 0 {
				t.Errorf("%s: socket %d not all-zero: %+v", name, sock, s)
			}
			if len(s.ControllerBW[sock]) != cps || len(s.ControllerLatency[sock]) != cps {
				t.Fatalf("%s: controller shape %+v", name, s)
			}
			for c := 0; c < cps; c++ {
				if s.ControllerBW[sock][c] != 0 || s.ControllerLatency[sock][c] != 0 {
					t.Errorf("%s: controller %d/%d non-zero", name, sock, c)
				}
			}
		}
	}
}

func TestSaturationVisibleInWindow(t *testing.T) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
	m.Record(1.0, resolve(t, sys, []memsys.Flow{
		{Task: "agg", Socket: 0, DemandBW: 1.5 * cfg.SocketBW()},
	}))
	s := m.Window()
	if s.SocketSaturation[0] <= 0.5 {
		t.Errorf("saturation = %v, want high under 150%% load", s.SocketSaturation[0])
	}
	if s.SocketBackpressure[0] >= 1 {
		t.Errorf("backpressure = %v, want < 1", s.SocketBackpressure[0])
	}
}

func TestSubdomainBW(t *testing.T) {
	cfg := memsys.DefaultConfig()
	cfg.SNCEnabled = true
	sys := memsys.MustSystem(cfg)
	m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
	m.Record(1.0, resolve(t, sys, []memsys.Flow{
		{Task: "hi", Socket: 0, Subdomain: 0, DemandBW: 5 * memsys.GB},
		{Task: "lo", Socket: 0, Subdomain: 1, DemandBW: 15 * memsys.GB},
	}))
	s := m.Window()
	bw0 := s.SubdomainBW(0, 0)
	bw1 := s.SubdomainBW(0, 1)
	if math.Abs(bw0-5*memsys.GB)/(5*memsys.GB) > 0.01 {
		t.Errorf("subdomain 0 BW = %v", bw0)
	}
	if math.Abs(bw1-15*memsys.GB)/(15*memsys.GB) > 0.01 {
		t.Errorf("subdomain 1 BW = %v", bw1)
	}
	if s.SubdomainBW(9, 0) != 0 || s.SubdomainBW(0, 9) != 0 {
		t.Error("out-of-range subdomain should report 0")
	}
}

func TestTotalBytesCumulative(t *testing.T) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
	res := resolve(t, sys, []memsys.Flow{{Task: "a", Socket: 0, DemandBW: memsys.GB}})
	m.Record(1.0, res)
	_ = m.Window() // reset windowed state
	m.Record(1.0, res)
	got := m.TotalBytes(0)
	want := 2 * float64(memsys.GB)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("TotalBytes = %v, want %v (cumulative across windows)", got, want)
	}
	if m.TotalBytes(-1) != 0 || m.TotalBytes(9) != 0 {
		t.Error("out-of-range socket should report 0")
	}
}

func TestRecordIgnoresNilAndZeroDt(t *testing.T) {
	m := MustMonitor(2, 2)
	m.Record(1.0, nil)
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	res, _ := sys.Resolve([]memsys.Flow{{Task: "a", Socket: 0, DemandBW: memsys.GB}})
	m.Record(0, res)
	m.Record(-1, res)
	if s := m.Window(); s.Elapsed != 0 {
		t.Errorf("Elapsed = %v, want 0", s.Elapsed)
	}
}

func TestEmptyWindowIsZero(t *testing.T) {
	m := MustMonitor(1, 1)
	s := m.Window()
	if s.Elapsed != 0 || s.SocketBW[0] != 0 || s.SocketLatency[0] != 0 {
		t.Errorf("empty window = %+v", s)
	}
}

// TestRestoreRejectsMalformedState pins that a snapshot whose slices do not
// match its declared shape (as a damaged snapshot file can decode to) is
// refused with an error, leaving the monitor untouched, rather than
// panicking or being copied in partially.
func TestRestoreRejectsMalformedState(t *testing.T) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	fresh := func() *Monitor {
		m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
		m.Record(0.5, resolve(t, sys, []memsys.Flow{{Task: "a", Socket: 0, DemandBW: 10 * memsys.GB}}))
		return m
	}
	for _, tc := range []struct {
		name   string
		mutate func(*State)
	}{
		{"short ctlBW", func(s *State) { s.CtlBW = s.CtlBW[:1] }},
		{"short ctlLat", func(s *State) { s.CtlLat = nil }},
		{"short ctlBW row", func(s *State) { s.CtlBW[1] = s.CtlBW[1][:1] }},
		{"short ctlLat row", func(s *State) { s.CtlLat[0] = nil }},
		{"short bw", func(s *State) { s.BW = s.BW[:1] }},
		{"short offered", func(s *State) { s.Offered = nil }},
		{"short lat", func(s *State) { s.Lat = s.Lat[:1] }},
		{"short sat", func(s *State) { s.Sat = nil }},
		{"short bp", func(s *State) { s.BP = s.BP[:1] }},
		{"short totalBytes", func(s *State) { s.TotalBytes = nil }},
		{"wrong shape", func(s *State) { s.CPS++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := fresh().State()
			tc.mutate(&st)
			m := fresh()
			want := m.Peek()
			if err := m.Restore(st); err == nil {
				t.Fatal("malformed state accepted")
			}
			if got := m.Peek(); !reflect.DeepEqual(got, want) {
				t.Error("rejected restore modified the monitor")
			}
		})
	}
}

// stateBits flattens a monitor's accumulators to their bit patterns, so
// equal means bit for bit (signed zeros included).
func stateBits(m *Monitor) []uint64 {
	st := m.State()
	var out []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	add(st.Elapsed)
	add(st.BW...)
	add(st.Offered...)
	add(st.Lat...)
	add(st.Sat...)
	add(st.BP...)
	add(st.TotalBytes...)
	for s := range st.CtlBW {
		add(st.CtlBW[s]...)
		add(st.CtlLat[s]...)
	}
	return out
}

// TestRecordNMatchesRecord pins RecordN's contract: integrating a
// resolution over k steps in one call equals k Record calls bit for bit,
// for a resolved resolution and for a hand-built one (Seq 0, re-derived on
// every call), on top of accumulators already holding other values. Runs
// of 17 steps take the plain adds, and runs of 1000 the folds, which cross
// binades on their way from the primed values. The tie case adds 1.5 grid
// steps of [2, 4) to latency accumulators primed to 3, so every add ties,
// and its zero rates leave the bandwidth accumulators where they were.
func TestRecordNMatchesRecord(t *testing.T) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	prime := resolve(t, sys, []memsys.Flow{{Task: "a", Socket: 1, DemandBW: 7 * memsys.GB}})
	resolved := resolve(t, sys, []memsys.Flow{
		{Task: "a", Socket: 0, Subdomain: 1, DemandBW: 33 * memsys.GB, LLCFootprint: 8e6, LLCRefBW: memsys.GB},
		{Task: "b", Socket: 1, DemandBW: 3 * memsys.GB, RemoteFrac: 0.3},
	})
	if resolved.Seq() == 0 {
		t.Fatal("resolved resolution has Seq 0")
	}
	handBuilt := &memsys.Resolution{
		Controllers: []memsys.ControllerState{
			{Socket: 0, Index: 0, Offered: 1.1e10, Granted: 1e10, Latency: 9.7e-8, Distress: 0.3},
			{Socket: 0, Index: 1, Offered: 2.3e9, Granted: 2.3e9, Latency: 8.1e-8},
			{Socket: 1, Index: 0, Offered: 5e9, Granted: 5e9, Latency: 8.3e-8, Distress: 0.01},
			{Socket: 1, Index: 1, Offered: 7.7e9, Granted: 7.1e9, Latency: 1.3e-7},
		},
		SocketBackpressure: []float64{0.93, 1},
	}
	// Primed over 1.5 s, primeThree puts 3 into socket 0's latency
	// accumulators; tie then adds 3·2^-52 every 0.5 s step.
	primeThree := &memsys.Resolution{Controllers: []memsys.ControllerState{{Socket: 0, Index: 0, Latency: 2}}}
	tie := &memsys.Resolution{
		Controllers:        []memsys.ControllerState{{Socket: 0, Index: 0, Latency: 3 * 0x1p-51}},
		SocketBackpressure: []float64{0, 0},
	}
	const dt = 100e-6
	for _, tc := range []struct {
		name       string
		dt         float64
		prime, res *memsys.Resolution
	}{
		{"resolved", dt, prime, resolved},
		{"seq0", dt, prime, handBuilt},
		{"tie", 0.5, primeThree, tie},
	} {
		for _, k := range []int{0, 1, 17, 1000} {
			one, batch := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket), MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
			for _, m := range []*Monitor{one, batch} {
				m.Record(3*tc.dt, tc.prime)
			}
			before := batch.State()
			for range k {
				one.Record(tc.dt, tc.res)
			}
			batch.RecordN(tc.dt, tc.res, k)
			if got, want := stateBits(batch), stateBits(one); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: RecordN(dt, res, %d) differs from %d Records:\n got: %+v\nwant: %+v", tc.name, k, k, batch.State(), one.State())
			}
			after := batch.State()
			if tc.res == tie {
				if before.CtlLat[0][0] != 3 || k > 0 && after.CtlLat[0][0] == before.CtlLat[0][0] {
					t.Errorf("tie: k=%d left the tied accumulator at %v", k, after.CtlLat[0][0])
				}
				if after.BW[0] != before.BW[0] || after.CtlBW[1][1] != before.CtlBW[1][1] {
					t.Errorf("tie: k=%d moved a zero-rate accumulator", k)
				}
				continue
			}
			if k > 0 && after.BW[0] == 0 {
				t.Errorf("%s: k=%d recorded no bandwidth on socket 0", tc.name, k)
			}
		}
	}
}

// BenchmarkRecordN measures one 1000-step RecordN of a replayed
// resolution: the monitor's share of a 1000-tick horizon run.
func BenchmarkRecordN(b *testing.B) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	res := resolve(b, sys, []memsys.Flow{
		{Task: "a", Socket: 0, Subdomain: 1, DemandBW: 33 * memsys.GB, LLCFootprint: 8e6, LLCRefBW: memsys.GB},
		{Task: "b", Socket: 1, DemandBW: 3 * memsys.GB, RemoteFrac: 0.3},
	})
	m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
	m.Record(100e-6, res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RecordN(100e-6, res, 1000)
	}
}

// BenchmarkRecordNPaths times RecordN's two paths, the interleaved add
// loop and one fold per accumulator, on the same run lengths around
// recordFoldMin, so that the cutoff can be set where they cross.
func BenchmarkRecordNPaths(b *testing.B) {
	cfg := memsys.DefaultConfig()
	sys := memsys.MustSystem(cfg)
	res := resolve(b, sys, []memsys.Flow{
		{Task: "a", Socket: 0, Subdomain: 1, DemandBW: 33 * memsys.GB, LLCFootprint: 8e6, LLCRefBW: memsys.GB},
		{Task: "b", Socket: 1, DemandBW: 3 * memsys.GB, RemoteFrac: 0.3},
	})
	paths := []struct {
		name string
		run  func(m *Monitor, dt float64, n int)
	}{{"loop", (*Monitor).recordLoop}, {"fold", (*Monitor).recordFold}}
	for _, n := range []int{8, 16, 20, 24, 28, 32, 48} {
		for _, p := range paths {
			b.Run(fmt.Sprintf("n=%d/%s", n, p.name), func(b *testing.B) {
				m := MustMonitor(cfg.Sockets, cfg.ControllersPerSocket)
				m.Record(100e-6, res)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.run(m, 100e-6, n)
				}
			})
		}
	}
}
