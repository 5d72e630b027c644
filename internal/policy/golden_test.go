package policy_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"kelp/internal/accel"
	"kelp/internal/cgroup"
	"kelp/internal/events"
	"kelp/internal/experiments"
	"kelp/internal/faults"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// goldenControllers pins the full event stream of every hardened
// controller — the Kelp runtime (KP), CoreThrottle (CT), the MBA controller
// and the Heracles-style SLO controller — under each fault regime of the
// resilience study plus a run with no injector attached. One SHA-256 per
// controller covers the JSONL of all its runs, in regime order. A change to
// the shared control period (stall, sense, sanity check, watchdog,
// fail-safe, actuation, event emission) that moves any event, field or
// float bit changes a digest.
var goldenControllers = map[string]string{
	"KP":  "f26212b1c11d692bb48b313f845fbbff1da898c71f4ee1b4942ef34e34859563",
	"CT":  "e8aa8c03d2409022a4f50436d59f108c0b1a644b39df31371afcfecd31f324a5",
	"MBA": "19394579fa8b88c92efcdb8414b5ff3d6b7ecefd72fe8e42c52dc47deb03e7ee",
	"SLO": "8d0273a5629f0f9c1be13f7f2b9c82af0102e2bb1e46df51f207cae90031394f",
}

// goldenRun is how long each controller runs per regime: 200 control
// periods at the default 0.1 s sample period, enough for every controller
// to enter fail-safe and leave it again under some regime.
const goldenRun = 20 * sim.Second

// goldenNode builds one controller's colocation on a fresh node with the
// recorder attached: CNN1 training plus a DRAM-H aggressor under an applied
// policy, or an RNN1 server plus a DRAM-H aggressor under the SLO
// controller.
func goldenNode(t *testing.T, ctrl string, rec *events.Recorder) *node.Node {
	t.Helper()
	n, err := node.New(node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.SetEvents(rec)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	agg, err := workload.NewDRAMAggressor(workload.LevelHigh)
	must(err)
	if ctrl == "SLO" {
		cg := n.Cgroups()
		_, err := cg.Create("ml", cgroup.High)
		must(err)
		sock := n.Processor().SocketCores(0)
		must(cg.SetCPUs("ml", sock.Take(2)))
		dev, err := accel.NewDevice(accel.NewTPU())
		must(err)
		server, err := workload.NewRNN1(dev, n.Engine().RNG().Stream("rnn1"))
		must(err)
		must(n.AddTask(server, "ml"))
		_, err = cg.Create("low", cgroup.Low)
		must(err)
		pool := sock.Minus(sock.Take(2))
		must(cg.SetCPUs("low", pool))
		must(n.AddTask(agg, "low"))
		ctl, err := policy.NewSLOController(n, policy.SLOControllerConfig{
			Server: server, TargetP95: 0.022, Group: "low", Pool: pool,
			MinCores: 2, MaxCores: pool.Len(), SamplePeriod: 0.1, Headroom: 0.3,
		})
		must(err)
		must(n.Engine().AddController("slo", 0.1, ctl))
		return n
	}
	kind := map[string]policy.Kind{
		"KP": policy.Kelp, "CT": policy.CoreThrottle, "MBA": policy.MBAThrottle,
	}[ctrl]
	a, err := policy.Apply(n, kind, policy.DefaultOptions())
	must(err)
	cnn, err := workload.NewCNN1(accel.NewCloudTPU())
	must(err)
	must(n.AddTask(cnn, a.ML))
	must(n.AddTask(agg, a.Low))
	if a.Backfill != "" {
		bf, err := workload.NewStitch(0)
		must(err)
		must(n.AddTask(bf, a.Backfill))
	}
	return n
}

// goldenDigest runs one controller under every regime and returns the
// digest of the concatenated event streams and the per-type event counts.
func goldenDigest(t *testing.T, ctrl string) (string, map[events.Type]int) {
	h := sha256.New()
	counts := map[events.Type]int{}
	run := func(inj *faults.Injector) {
		rec := events.MustNew(1 << 20)
		n := goldenNode(t, ctrl, rec)
		if inj != nil {
			n.SetFaults(inj)
		}
		n.Run(goldenRun)
		if d := rec.Dropped(); d != 0 {
			t.Fatalf("recorder dropped %d events; the digest needs the whole stream", d)
		}
		evs := rec.Events()
		if err := events.WriteJSONL(h, evs); err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			counts[e.Type]++
		}
	}
	run(nil)
	for _, fc := range experiments.FaultCases(7) {
		run(faults.MustInjector(fc.Spec))
	}
	return hex.EncodeToString(h.Sum(nil)), counts
}

// TestControllerEventsGolden pins each hardened controller's event stream
// byte for byte. It also checks the regimes reach every branch of the
// control period: fail-safe entry and exit, rejected samples (the PMU
// controllers; the SLO controller reads no PMU) and failed actuations.
func TestControllerEventsGolden(t *testing.T) {
	for _, ctrl := range []string{"KP", "CT", "MBA", "SLO"} {
		t.Run(ctrl, func(t *testing.T) {
			got, counts := goldenDigest(t, ctrl)
			if want := goldenControllers[ctrl]; got != want {
				t.Errorf("event digest = %s, want %s (counts %v)", got, want, counts)
			}
			need := []events.Type{events.DegradeEnter, events.DegradeExit, events.ActuateError}
			if ctrl != "SLO" {
				need = append(need, events.SensorReject)
			}
			for _, typ := range need {
				if counts[typ] == 0 {
					t.Errorf("no %s event in any regime (counts %v)", typ, counts)
				}
			}
		})
	}
}
