package memsys

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config { return DefaultConfig() }

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Sockets = 0 },
		func(c *Config) { c.Sockets = 99 },
		func(c *Config) { c.ControllersPerSocket = 0 },
		func(c *Config) { c.BWPerController = 0 },
		func(c *Config) { c.BaseLatency = -1 },
		func(c *Config) { c.MaxLatencyStretch = 0.5 },
		func(c *Config) { c.DistressThreshold = 0 },
		func(c *Config) { c.DistressThreshold = 1 },
		func(c *Config) { c.MaxBackpressure = -0.1 },
		func(c *Config) { c.MaxBackpressure = 1.0 },
		func(c *Config) { c.LLCWays = 0 },
		func(c *Config) { c.LinkBW = 0 },
		func(c *Config) { c.CoherenceFactor = 0.5 },
	}
	for i, mut := range mutations {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestFlowValidation(t *testing.T) {
	s := MustSystem(testConfig())
	bad := []Flow{
		{Task: "a", Socket: -1},
		{Task: "a", Socket: 5},
		{Task: "a", Subdomain: 7},
		{Task: "a", DemandBW: -1},
		{Task: "a", RemoteFrac: 1.5},
		{Task: "a", LLCWayMask: 1 << 60},
	}
	for i, f := range bad {
		if _, err := s.Resolve([]Flow{f}); err == nil {
			t.Errorf("flow %d accepted: %+v", i, f)
		}
	}
}

func TestUncontendedFlowGetsFullBandwidth(t *testing.T) {
	s := MustSystem(testConfig())
	res, err := s.Resolve([]Flow{{Task: "ml", Socket: 0, DemandBW: 5 * GB}})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Flows[0]
	if fr.BWFraction < 0.999 {
		t.Errorf("BWFraction = %v, want ~1", fr.BWFraction)
	}
	if fr.LatencyStretch > 1.05 {
		t.Errorf("LatencyStretch = %v, want ~1 at low load", fr.LatencyStretch)
	}
	if fr.Backpressure != 1 {
		t.Errorf("Backpressure = %v, want 1", fr.Backpressure)
	}
}

func TestOversubscriptionSharesProportionally(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	// Two flows each demanding the whole socket: each should get half.
	total := cfg.SocketBW()
	res, err := s.Resolve([]Flow{
		{Task: "a", Socket: 0, DemandBW: total},
		{Task: "b", Socket: 0, DemandBW: total},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range res.Flows {
		if math.Abs(fr.BWFraction-0.5) > 0.01 {
			t.Errorf("flow %d BWFraction = %v, want 0.5", i, fr.BWFraction)
		}
	}
	if res.SocketGranted(0) > total*1.001 {
		t.Errorf("granted %v exceeds capacity %v", res.SocketGranted(0), total)
	}
}

func TestLatencyGrowsWithUtilization(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	prev := 0.0
	for _, load := range []float64{0.1, 0.4, 0.7, 0.9, 1.2} {
		res, err := s.Resolve([]Flow{{Task: "x", Socket: 0, DemandBW: load * cfg.SocketBW()}})
		if err != nil {
			t.Fatal(err)
		}
		lat := res.Flows[0].Latency
		if lat < prev {
			t.Errorf("latency decreased at load %v: %v < %v", load, lat, prev)
		}
		prev = lat
	}
	if prev > cfg.BaseLatency*cfg.MaxLatencyStretch*1.001 {
		t.Errorf("latency %v exceeds cap", prev)
	}
}

func TestDistressAssertsOnlyAboveThreshold(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	res, _ := s.Resolve([]Flow{{Task: "x", Socket: 0, DemandBW: 0.5 * cfg.SocketBW()}})
	if d := res.MaxDistress(0); d != 0 {
		t.Errorf("distress at 50%% load = %v, want 0", d)
	}
	res, _ = s.Resolve([]Flow{{Task: "x", Socket: 0, DemandBW: 1.3 * cfg.SocketBW()}})
	if d := res.MaxDistress(0); d <= 0.5 {
		t.Errorf("distress at 130%% load = %v, want high", d)
	}
	bp := res.SocketBackpressure[0]
	want := 1 - cfg.MaxBackpressure*res.MaxDistress(0)
	if math.Abs(bp-want) > 1e-9 {
		t.Errorf("backpressure = %v, want %v", bp, want)
	}
}

func TestBackpressureHitsBothSubdomains(t *testing.T) {
	// The paper's key observation: with SNC on, an aggressor saturating its
	// own subdomain still throttles cores in the other subdomain.
	cfg := testConfig()
	cfg.SNCEnabled = true
	s := MustSystem(cfg)
	res, err := s.Resolve([]Flow{
		{Task: "ml", Socket: 0, Subdomain: 0, DemandBW: 2 * GB},
		{Task: "agg", Socket: 0, Subdomain: 1, DemandBW: 1.5 * cfg.BWPerController},
	})
	if err != nil {
		t.Fatal(err)
	}
	ml := res.Flows[0]
	if ml.BWFraction < 0.999 {
		t.Errorf("ML flow starved of bandwidth (%v) despite SNC isolation", ml.BWFraction)
	}
	if ml.Backpressure >= 1 {
		t.Error("ML flow unaffected by distress; want socket-wide backpressure")
	}
	agg := res.Flows[1]
	if agg.BWFraction > 0.8 {
		t.Errorf("aggressor got %v of demand, want throttled by its controller", agg.BWFraction)
	}
}

func TestSNCIsolatesBandwidth(t *testing.T) {
	cfg := testConfig()
	cfg.SNCEnabled = true
	s := MustSystem(cfg)
	// Aggressor saturates subdomain 1; ML in subdomain 0 keeps its grant
	// and its low latency.
	res, err := s.Resolve([]Flow{
		{Task: "ml", Socket: 0, Subdomain: 0, DemandBW: 10 * GB},
		{Task: "agg", Socket: 0, Subdomain: 1, DemandBW: 1.2 * cfg.BWPerController},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].BWFraction < 0.999 {
		t.Errorf("SNC failed to isolate bandwidth: %v", res.Flows[0].BWFraction)
	}
	if res.Flows[0].LatencyStretch > 1.2 {
		t.Errorf("ML latency stretched to %v under SNC isolation", res.Flows[0].LatencyStretch)
	}
	if res.Flows[1].LatencyStretch < 2 {
		t.Errorf("aggressor latency %v, want heavily loaded", res.Flows[1].LatencyStretch)
	}
}

func TestWithoutSNCContentionIsShared(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	res, err := s.Resolve([]Flow{
		{Task: "ml", Socket: 0, Subdomain: 0, DemandBW: 10 * GB},
		{Task: "agg", Socket: 0, Subdomain: 1, DemandBW: 1.5 * cfg.SocketBW()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].BWFraction > 0.95 {
		t.Errorf("SNC off: ML should contend, BWFraction = %v", res.Flows[0].BWFraction)
	}
	if res.Flows[0].LatencyStretch < 2 {
		t.Errorf("SNC off: ML latency stretch = %v, want loaded", res.Flows[0].LatencyStretch)
	}
}

func TestSNCLocalLatencyBonus(t *testing.T) {
	cfg := testConfig()
	sOff := MustSystem(cfg)
	cfg.SNCEnabled = true
	sOn := MustSystem(cfg)
	f := []Flow{{Task: "x", Socket: 0, Subdomain: 0, DemandBW: 1 * GB}}
	rOff, _ := sOff.Resolve(f)
	rOn, _ := sOn.Resolve(f)
	if !(rOn.Flows[0].Latency < rOff.Flows[0].Latency) {
		t.Errorf("SNC local latency %v, want < non-SNC %v",
			rOn.Flows[0].Latency, rOff.Flows[0].Latency)
	}
}

func TestRemoteTrafficUsesLinkAndRemoteControllers(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	res, err := s.Resolve([]Flow{
		{Task: "r", Socket: 0, DemandBW: 10 * GB, RemoteFrac: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SocketOffered(1); math.Abs(got-10*GB) > 1e-3*GB {
		t.Errorf("remote socket offered %v, want 10 GB/s", got)
	}
	if got := res.SocketOffered(0); got != 0 {
		t.Errorf("local socket offered %v, want 0", got)
	}
	if len(res.Links) != 1 || res.Links[0].From != 0 || res.Links[0].To != 1 {
		t.Fatalf("links = %+v", res.Links)
	}
	// Remote access must cost more than local.
	local, _ := s.Resolve([]Flow{{Task: "l", Socket: 0, DemandBW: 10 * GB}})
	if !(res.Flows[0].Latency > local.Flows[0].Latency) {
		t.Errorf("remote latency %v, want > local %v", res.Flows[0].Latency, local.Flows[0].Latency)
	}
}

func TestCoherenceFactorAmplifiesRemotePenalty(t *testing.T) {
	base := testConfig()
	heavy := base
	heavy.CoherenceFactor = 1.8
	f := []Flow{{Task: "r", Socket: 0, DemandBW: 20 * GB, RemoteFrac: 0.8}}
	r1, _ := MustSystem(base).Resolve(f)
	r2, _ := MustSystem(heavy).Resolve(f)
	if !(r2.Flows[0].Latency > r1.Flows[0].Latency) {
		t.Errorf("coherence factor did not raise remote latency: %v vs %v",
			r2.Flows[0].Latency, r1.Flows[0].Latency)
	}
}

func TestLinkSaturationThrottlesRemoteFlows(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	res, err := s.Resolve([]Flow{
		{Task: "r", Socket: 0, DemandBW: 3 * cfg.LinkBW, RemoteFrac: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].BWFraction > 0.5 {
		t.Errorf("BWFraction = %v, want link-limited", res.Flows[0].BWFraction)
	}
	if res.Links[0].Utilization < 1 {
		t.Errorf("link utilization = %v, want >= 1", res.Links[0].Utilization)
	}
}

func TestLLCPartitioningProtectsVictim(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	victim := Flow{
		Task: "ml", Socket: 0,
		LLCFootprint: cfg.LLCSize * 0.2,
		LLCRefBW:     20 * GB,
		DemandBW:     1 * GB,
	}
	attacker := Flow{
		Task: "llc", Socket: 0,
		LLCFootprint: cfg.LLCSize * 3,
		LLCRefBW:     30 * GB,
	}
	// Shared LLC: victim loses residency and spills to DRAM.
	shared, err := s.Resolve([]Flow{victim, attacker})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Flows[0].LLCHit > 0.6 {
		t.Errorf("shared hit = %v, want degraded", shared.Flows[0].LLCHit)
	}
	if shared.Flows[0].DRAMTraffic <= victim.DemandBW {
		t.Error("LLC misses did not spill to DRAM traffic")
	}

	// CAT: give the victim 3 dedicated ways.
	vCAT := victim
	vCAT.LLCWayMask = 0b111
	aCAT := attacker
	aCAT.LLCWayMask = cfg.AllWays() &^ 0b111
	part, err := s.Resolve([]Flow{vCAT, aCAT})
	if err != nil {
		t.Fatal(err)
	}
	if part.Flows[0].LLCHit < 0.99 {
		t.Errorf("CAT-partitioned hit = %v, want ~1", part.Flows[0].LLCHit)
	}
}

func TestLLCHitFullWhenFits(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	res, _ := s.Resolve([]Flow{
		{Task: "a", Socket: 0, LLCFootprint: cfg.LLCSize * 0.3, LLCRefBW: GB},
		{Task: "b", Socket: 0, LLCFootprint: cfg.LLCSize * 0.3, LLCRefBW: GB},
	})
	for i, fr := range res.Flows {
		if fr.LLCHit < 0.99 {
			t.Errorf("flow %d hit = %v, want ~1 (fits)", i, fr.LLCHit)
		}
	}
}

func TestLLCSocketsAreIndependent(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	res, _ := s.Resolve([]Flow{
		{Task: "v", Socket: 0, LLCFootprint: cfg.LLCSize * 0.5, LLCRefBW: GB},
		{Task: "a", Socket: 1, LLCFootprint: cfg.LLCSize * 10, LLCRefBW: GB},
	})
	if res.Flows[0].LLCHit < 0.99 {
		t.Errorf("cross-socket LLC interference: hit = %v", res.Flows[0].LLCHit)
	}
}

func TestZeroFlows(t *testing.T) {
	s := MustSystem(testConfig())
	res, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 0 {
		t.Error("unexpected flow results")
	}
	for _, bp := range res.SocketBackpressure {
		if bp != 1 {
			t.Errorf("idle backpressure = %v, want 1", bp)
		}
	}
	if lat := res.MeanSocketLatency(0); math.Abs(lat-s.Config().BaseLatency) > 1e-12 {
		t.Errorf("idle latency = %v, want base", lat)
	}
}

func TestZeroDemandFlowSeesUnloadedLatency(t *testing.T) {
	s := MustSystem(testConfig())
	res, err := s.Resolve([]Flow{{Task: "idle", Socket: 0}})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Flows[0]
	if fr.BWFraction != 1 || fr.Granted != 0 {
		t.Errorf("zero-demand flow: %+v", fr)
	}
	if fr.LatencyStretch > 1.01 {
		t.Errorf("zero-demand latency stretch = %v", fr.LatencyStretch)
	}
}

// Property: bandwidth is conserved — total granted never exceeds capacity,
// and per-flow grants sum to controller grants.
func TestGrantConservationProperty(t *testing.T) {
	cfg := testConfig()
	f := func(seed int64, snc bool) bool {
		cfg.SNCEnabled = snc
		s := MustSystem(cfg)
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		flows := make([]Flow, n)
		for i := range flows {
			flows[i] = Flow{
				Task:         "t",
				Socket:       rng.Intn(cfg.Sockets),
				Subdomain:    rng.Intn(cfg.ControllersPerSocket),
				DemandBW:     rng.Float64() * 2 * cfg.SocketBW(),
				RemoteFrac:   rng.Float64(),
				LLCFootprint: rng.Float64() * cfg.LLCSize * 2,
				LLCRefBW:     rng.Float64() * 10 * GB,
			}
		}
		res, err := s.Resolve(flows)
		if err != nil {
			return false
		}
		for _, c := range res.Controllers {
			if c.Granted > c.Capacity*1.0001 {
				return false
			}
		}
		var flowTotal float64
		for _, fr := range res.Flows {
			if fr.Granted > fr.DRAMTraffic*1.0001 {
				return false
			}
			if fr.BWFraction < 0 || fr.BWFraction > 1.0001 {
				return false
			}
			if fr.Backpressure <= 0 || fr.Backpressure > 1 {
				return false
			}
			if fr.LLCHit < 0 || fr.LLCHit > 1 {
				return false
			}
			flowTotal += fr.Granted
		}
		var ctlTotal float64
		for _, c := range res.Controllers {
			ctlTotal += c.Granted
		}
		// Flow grants can be below controller grants only via rounding; they
		// must never exceed them.
		return flowTotal <= ctlTotal*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: adding an aggressor never improves a victim's outcome.
func TestMonotoneInterferenceProperty(t *testing.T) {
	cfg := testConfig()
	f := func(seed int64) bool {
		s := MustSystem(cfg)
		rng := rand.New(rand.NewSource(seed))
		victim := Flow{
			Task: "v", Socket: 0,
			DemandBW:     (0.1 + rng.Float64()) * 10 * GB,
			LLCFootprint: rng.Float64() * cfg.LLCSize,
			LLCRefBW:     rng.Float64() * 5 * GB,
		}
		alone, err := s.Resolve([]Flow{victim})
		if err != nil {
			return false
		}
		agg := Flow{
			Task: "a", Socket: 0,
			DemandBW:     rng.Float64() * 2 * cfg.SocketBW(),
			LLCFootprint: rng.Float64() * cfg.LLCSize * 4,
			LLCRefBW:     rng.Float64() * 20 * GB,
		}
		together, err := s.Resolve([]Flow{victim, agg})
		if err != nil {
			return false
		}
		v0, v1 := alone.Flows[0], together.Flows[0]
		return v1.BWFraction <= v0.BWFraction+1e-9 &&
			v1.Latency >= v0.Latency-1e-12 &&
			v1.LLCHit <= v0.LLCHit+1e-9 &&
			v1.Backpressure <= v0.Backpressure+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResolutionAccessors(t *testing.T) {
	cfg := testConfig()
	s := MustSystem(cfg)
	res, err := s.Resolve([]Flow{{Task: "x", Socket: 0, DemandBW: 10 * GB}})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Controller(0, 0)
	if c.Socket != 0 || c.Index != 0 || c.Offered <= 0 {
		t.Errorf("Controller(0,0) = %+v", c)
	}
	missing := res.Controller(0, 99)
	if missing.Offered != 0 {
		t.Errorf("missing controller = %+v", missing)
	}
	if s.Last() != res {
		t.Error("Last() should return most recent resolution")
	}
}

func TestSetSNC(t *testing.T) {
	s := MustSystem(testConfig())
	s.SetSNC(true)
	if !s.Config().SNCEnabled {
		t.Error("SetSNC(true) not applied")
	}
	res, err := s.Resolve([]Flow{{Task: "x", Socket: 0, Subdomain: 1, DemandBW: 10 * GB}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller(0, 1).Offered <= 0 || res.Controller(0, 0).Offered != 0 {
		t.Error("SNC routing did not pin traffic to subdomain 1")
	}
}

func TestPopcount(t *testing.T) {
	cases := []struct {
		in   uint64
		want int
	}{{0, 0}, {1, 1}, {0b1011, 3}, {^uint64(0), 64}}
	for _, c := range cases {
		if got := popcount(c.in); got != c.want {
			t.Errorf("popcount(%#x) = %d, want %d", c.in, got, c.want)
		}
	}
}
