package kelp_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"kelp"
	"kelp/internal/cluster"
	"kelp/internal/workload"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end to
// end through the public package only.
func TestPublicAPIQuickstart(t *testing.T) {
	n, err := kelp.NewNode(kelp.DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	applied, err := kelp.Apply(n, kelp.Kelp, kelp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cnn1, err := kelp.NewCNN1(kelp.NewCloudTPU())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddTask(cnn1, applied.ML); err != nil {
		t.Fatal(err)
	}
	stream, err := kelp.NewStream(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddTask(stream, applied.Low); err != nil {
		t.Fatal(err)
	}
	n.Run(1 * kelp.Second)
	n.StartMeasurement()
	n.Run(1 * kelp.Second)
	if cnn1.Throughput(n.Now()) <= 0 {
		t.Error("CNN1 made no progress")
	}
	if stream.Throughput(n.Now()) <= 0 {
		t.Error("Stream made no progress")
	}
	if applied.Runtime == nil || len(applied.Runtime.History()) == 0 {
		t.Error("Kelp runtime recorded no decisions")
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	for _, p := range []kelp.Policy{kelp.Baseline, kelp.CoreThrottle, kelp.KelpSubdomain, kelp.Kelp} {
		n := kelp.MustNode(kelp.DefaultNodeConfig())
		if _, err := kelp.Apply(n, p, kelp.DefaultOptions()); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestPublicAPIWorkloadConstructors(t *testing.T) {
	dev, err := kelp.NewDevice(kelp.NewTPU())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kelp.NewRNN1(dev, nil); err != nil {
		t.Error(err)
	}
	if _, err := kelp.NewCNN2(kelp.NewCloudTPU()); err != nil {
		t.Error(err)
	}
	if _, err := kelp.NewCNN3(kelp.NewGPU()); err != nil {
		t.Error(err)
	}
	for _, lvl := range []kelp.AggressorLevel{kelp.LevelLow, kelp.LevelMedium, kelp.LevelHigh} {
		if _, err := kelp.NewDRAMAggressor(lvl); err != nil {
			t.Error(err)
		}
	}
	if _, err := kelp.NewStitch(0); err != nil {
		t.Error(err)
	}
	if _, err := kelp.NewCPUML(4); err != nil {
		t.Error(err)
	}
	if _, err := kelp.NewLLCAggressor(38.5e6); err != nil {
		t.Error(err)
	}
	if _, err := kelp.NewRemoteDRAMAggressor(kelp.LevelHigh, 0.5); err != nil {
		t.Error(err)
	}
}

func TestPublicAPIManualRuntime(t *testing.T) {
	cfg := kelp.DefaultNodeConfig()
	cfg.Memory.SNCEnabled = true
	n := kelp.MustNode(cfg)
	cg := n.Cgroups()
	for _, g := range []string{"ml", "low"} {
		if _, err := cg.Create(g, 0); err != nil {
			t.Fatal(err)
		}
	}
	mem := cfg.Memory
	rt, err := kelp.NewRuntime(n, kelp.RuntimeConfig{
		Socket:        0,
		HighSubdomain: 0,
		LowSubdomain:  1,
		LowGroup:      "low",
		Watermarks:    kelp.DefaultWatermarks(mem.BWPerController, mem.BaseLatency),
		MinLowCores:   2,
		MaxLowCores:   14,
		SamplePeriod:  0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.LowCores() != 14 {
		t.Errorf("LowCores = %d", rt.LowCores())
	}
}

func TestPublicAPICluster(t *testing.T) {
	res, err := kelp.RunCluster(cluster.Config{
		Workers: make([]cluster.WorkerSpec, 2),
		Node:    kelp.DefaultNodeConfig(),
		MLCores: 4,
		Warmup:  500 * kelp.Millisecond,
		Measure: 2 * kelp.Second,
		MakeTask: func() (*workload.Training, error) {
			return workload.NewCNN3(kelp.NewGPU())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsPerSec <= 0 {
		t.Error("cluster made no progress")
	}
}

func TestPublicAPIHarness(t *testing.T) {
	h := kelp.NewHarness()
	h.Warmup = 500 * kelp.Millisecond
	h.Measure = 500 * kelp.Millisecond
	rows := kelp.Table1()
	if len(rows) != 4 {
		t.Error("Table1 incomplete")
	}
	if _, _, err := kelp.Figure2(kelp.DefaultFleetConfig()); err != nil {
		t.Error(err)
	}
}

// TestPublicAPIProfileFile round-trips a profile through the public file
// helpers, and a missing file is an error.
func TestPublicAPIProfileFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cnn1.json")
	want := kelp.DefaultProfile("CNN1")
	if err := kelp.SaveProfile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := kelp.LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded %+v, saved %+v", got, want)
	}
	if _, err := kelp.LoadProfile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing profile file loaded")
	}
}

// TestPublicAPIEventRecorder builds a flight recorder through the public
// package, attaches it to a node under Kelp, and reads the controller's
// actuation events back; capacity 0 is refused.
func TestPublicAPIEventRecorder(t *testing.T) {
	if _, err := kelp.NewEventRecorder(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	rec, err := kelp.NewEventRecorder(256)
	if err != nil {
		t.Fatal(err)
	}
	n, err := kelp.NewNode(kelp.DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.SetEvents(rec)
	applied, err := kelp.Apply(n, kelp.Kelp, kelp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := kelp.NewStream(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddTask(stream, applied.Low); err != nil {
		t.Fatal(err)
	}
	n.Run(1 * kelp.Second)
	if rec.Len() == 0 {
		t.Error("a second of Kelp control recorded no events")
	}
}
