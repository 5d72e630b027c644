package experiments

import (
	"strings"
	"testing"

	"kelp/internal/fleet"
	"kelp/internal/pool"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// fleetHarness returns a shortened private harness for the fleet study
// tests: the suite re-runs the study several times (serial vs parallel,
// warm vs cold), so it cannot share quickHarness's settings.
func fleetHarness(parallel int) *Harness {
	h := NewHarness()
	h.Warmup = 1500 * sim.Millisecond
	h.Measure = 1 * sim.Second
	h.Parallel = parallel
	return h
}

const fleetTestMachines = 200

func fleetTableString(t *testing.T, h *Harness) string {
	t.Helper()
	rows, err := FleetStudy(h, fleetTestMachines, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FleetStudyCases()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(FleetStudyCases()))
	}
	return FleetTable(rows, fleetTestMachines).String()
}

// TestFleetStudyParallelIdentical pins the study's sharding invariant: the
// rendered fleet table is byte-identical whether machine shapes simulate
// on one worker or eight.
func TestFleetStudyParallelIdentical(t *testing.T) {
	ResetWarmCache()
	serial := fleetTableString(t, fleetHarness(1))
	ResetWarmCache()
	wide := fleetTableString(t, fleetHarness(8))
	if serial != wide {
		t.Fatalf("fleet table diverges across -parallel:\nserial:\n%s\nwide:\n%s", serial, wide)
	}
	if !strings.Contains(serial, "random/kelp-0%") || !strings.Contains(serial, "kelp-aware/kelp-50%") {
		t.Fatalf("table missing study cases:\n%s", serial)
	}
}

// TestFleetStudyKelpWins asserts the study's acceptance-level contrast on
// the real node measurer: an all-Kelp fleet out-goodputs an all-Baseline
// fleet under identical random placement, and within a mixed fleet the
// Kelp-on population beats the Kelp-off one.
func TestFleetStudyKelpWins(t *testing.T) {
	h := fleetHarness(0)
	rows, err := FleetStudy(h, fleetTestMachines, nil)
	if err != nil {
		t.Fatal(err)
	}
	byCase := map[string]*fleet.Result{}
	for _, r := range rows {
		byCase[r.Case] = r.Result
	}
	off, on := byCase["random/kelp-0%"], byCase["random/kelp-100%"]
	if off == nil || on == nil {
		t.Fatal("study missing the kelp-0%/kelp-100% contrast rows")
	}
	if on.MPG <= off.MPG {
		t.Errorf("all-Kelp fleet MPG %.3f should beat all-Baseline %.3f", on.MPG, off.MPG)
	}
	mixed := byCase["random/kelp-50%"]
	if mixed == nil {
		t.Fatal("study missing the random/kelp-50% row")
	}
	if mixed.WorkersOn == 0 || mixed.WorkersOff == 0 {
		t.Fatalf("mixed fleet should land workers in both populations (on=%d off=%d)",
			mixed.WorkersOn, mixed.WorkersOff)
	}
	if mixed.MPGKelpOn <= mixed.MPGKelpOff {
		t.Errorf("mixed fleet: MPG on %.3f should beat MPG off %.3f",
			mixed.MPGKelpOn, mixed.MPGKelpOff)
	}
}

// TestMachineMeasurerMeasuresShapeOnce pins the harness's measurement
// memo: concurrent callers asking for the same shape, through measurers
// obtained separately from one harness, all receive the one
// *fleet.Measurement its single simulation produced, and distinct shapes
// are measured separately. Run under -race it also covers the memo's
// locking.
func TestMachineMeasurerMeasuresShapeOnce(t *testing.T) {
	h := fleetHarness(4)
	shapes := []fleet.MachineShape{
		fleet.ReferenceShape(),
		{HasWorker: true, KelpOn: true, HasBackground: true, Background: workload.LevelHigh, Batch: 1},
		{HasBackground: true, Background: workload.LevelLow, Batch: 2},
	}
	const callers = 8
	got, err := pool.Collect(4, callers*len(shapes), func(i int) (*fleet.Measurement, error) {
		return h.MachineMeasurer()(shapes[i%len(shapes)])
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range got {
		if m == nil {
			t.Fatalf("call %d: nil measurement", i)
		}
		if first := got[i%len(shapes)]; m != first {
			t.Errorf("shape %v measured more than once (call %d got a different measurement)", shapes[i%len(shapes)], i)
		}
	}
	for i := range shapes {
		for j := i + 1; j < len(shapes); j++ {
			if got[i] == got[j] {
				t.Errorf("shapes %v and %v share a measurement", shapes[i], shapes[j])
			}
		}
	}
}

// TestFleetStudyMemoNeutral pins that the measurement memo changes no
// output: the study on one harness, where later cases reuse earlier cases'
// shape measurements, renders the same table as every case run on a fresh
// harness of its own.
func TestFleetStudyMemoNeutral(t *testing.T) {
	shared := fleetTableString(t, fleetHarness(4))
	var rows []FleetStudyRow
	for _, fc := range FleetStudyCases() {
		res, err := fleetHarness(4).fleetCase(fc, fleetTestMachines, FleetFaultSpec(7))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, FleetStudyRow{Case: fc.Name, Result: res})
	}
	if fresh := FleetTable(rows, fleetTestMachines).String(); fresh != shared {
		t.Fatalf("memoized study differs from fresh harness per case:\nshared:\n%s\nfresh:\n%s", shared, fresh)
	}
}
