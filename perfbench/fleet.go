package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"kelp/internal/experiments"
	"kelp/internal/fleet"
)

// fleetMachines is the fleet size. At this size placement dominates the
// study (batch placement scans every machine per task), while node
// simulation of the deduplicated shapes is the rest.
const fleetMachines = 20000

// fleetPhases are the layer calls of one fleet case, in order.
var fleetPhases = []string{"build", "simulate", "tick"}

// runFleet times the fleet study's six placement cases, driven through
// fleet.Build, Simulate and Tick exactly as experiments.FleetStudy composes
// them, with the benchmark seed as fleet.Config.Seed.
func runFleet(o opts, tr *tracer) (*report, error) {
	rep := newReport()
	cases := experiments.FleetStudyCases()
	// phaseSum accumulates each layer call's time over traced passes.
	phaseSum := make([]float64, len(fleetPhases))
	var last *fleet.Fleet
	shapes := 0
	first := ""
	passes, err := runPasses(o, tr, func(ptr *tracer, st *passStat) error {
		h, setup := freshHarness()
		measure := h.MachineMeasurer()
		st.setup = setup
		passID := ptr.id()
		start := time.Now()
		rows := make([]experiments.FleetStudyRow, 0, len(cases))
		shapes = 0
		for _, fc := range cases {
			caseID := ptr.id()
			ts := time.Now()
			f, res, took, err := runCase(fleetConfig(fc, o.seed), measure, ptr, caseID)
			te := time.Now()
			ptr.record(caseID, passID, 0, "fleet.case."+fc.Name, ts, te)
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("fleet case %s: %v", fc.Name, err)
				continue
			}
			last = f
			st.ops++
			st.lat = append(st.lat, te.Sub(ts).Seconds())
			if ptr != nil {
				for i, d := range took {
					phaseSum[i] += d.Seconds()
				}
			}
			shapes += res.DistinctShapes
			rows = append(rows, experiments.FleetStudyRow{Case: fc.Name, Result: res})
		}
		var out bytes.Buffer
		fmt.Fprintln(&out, experiments.FleetTable(rows, fleetMachines))
		end := time.Now()
		ptr.record(passID, 0, 0, "fleet.pass", start, end)
		st.wall = end.Sub(start).Seconds()
		got := digest(out.Bytes())
		if first == "" {
			first = got
		}
		if got != first {
			rep.fail("fleet table digest %s differs from the first pass's %s", got, first)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if want, ok := fleetDigests[o.seed]; !ok {
		rep.note("fleet: %d passes identical, table digest %s; no pinned digest for seed %d", len(passes), first, o.seed)
	} else if first != want {
		rep.fail("fleet table digest %s at seed %d, want %s", first, o.seed, want)
	} else {
		rep.note("fleet: %d passes identical and equal to the pinned digest for seed %d", len(passes), o.seed)
	}
	// The last case's placed and simulated fleet is the study's live state.
	heap := liveHeapMB()
	runtime.KeepAlive(last)

	fillMetrics(rep, passes, heap)
	if tr == nil {
		return rep, nil
	}

	traced := tracedWalls(passes)
	var attributed float64
	for i, p := range fleetPhases {
		v := phaseSum[i] / float64(len(traced))
		rep.layers["fleet."+p+"_s"] = v
		attributed += v
	}
	wall := mean(traced)
	rep.layers["fleet.unattributed_s"] = wall - attributed
	checkAttribution(rep, "fleet", wall, attributed)
	var shapeMS []float64
	for _, sp := range tr.snapshot() {
		if sp.Name == "fleet.shape" {
			shapeMS = append(shapeMS, float64(sp.dur())/1e6)
		}
	}
	rep.layers["fleet.shape_ms_p50"] = median(shapeMS)
	rep.layers["fleet.shapes"] = float64(shapes)
	rep.layers["fleet.machines_per_shape"] = float64(len(cases)*fleetMachines) / float64(max(shapes, 1))
	return rep, probeCell(rep)
}

// runCase builds, simulates and composes one fleet case, returning the
// time each of the three layer calls took. Under a tracer every machine
// shape measurement is recorded as a child span of the simulate call.
func runCase(cfg fleet.Config, measure fleet.Measurer, tr *tracer, caseID uint64) (*fleet.Fleet, *fleet.Result, [3]time.Duration, error) {
	var took [3]time.Duration
	t := time.Now()
	f, err := fleet.Build(cfg)
	end := time.Now()
	took[0] = end.Sub(t)
	tr.record(0, caseID, 0, "fleet.build", t, end)
	if err != nil {
		return nil, nil, took, err
	}

	simID := tr.id()
	m := measure
	if tr != nil {
		m = func(s fleet.MachineShape) (*fleet.Measurement, error) {
			t := time.Now()
			r, err := measure(s)
			tr.record(0, simID, 0, "fleet.shape", t, time.Now())
			return r, err
		}
	}
	t = time.Now()
	err = f.Simulate(m, experiments.DefaultParallelism())
	end = time.Now()
	took[1] = end.Sub(t)
	tr.record(simID, caseID, 0, "fleet.simulate", t, end)
	if err != nil {
		return nil, nil, took, err
	}

	t = time.Now()
	res, err := f.Tick()
	end = time.Now()
	took[2] = end.Sub(t)
	tr.record(0, caseID, 0, "fleet.tick", t, end)
	return f, res, took, err
}

// fleetConfig is experiments.FleetStudy's configuration of one case, at the
// benchmark's fleet size and seed.
func fleetConfig(fc experiments.FleetStudyCase, seed int64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Machines = fleetMachines
	cfg.BatchTasks = fleetMachines * 3 / 10
	cfg.Policy = fc.Policy
	cfg.KelpFraction = fc.KelpFraction
	cfg.Faults = experiments.FleetFaultSpec(7)
	cfg.Horizon = experiments.ClusterFaultHorizon
	cfg.Seed = seed
	return cfg
}
