package events_test

import (
	"fmt"
	"os"

	"kelp/internal/events"
)

// The basic flight-recorder loop: emit structured events, then poll them
// back with a cursor, exactly as the kelpd GET /events endpoint does.
func ExampleRecorder() {
	rec := events.MustNew(64)

	rec.Emit(0.0, events.AgentAdmit, "agent",
		map[string]any{"task": "CNN1", "group": "ml", "ml": true})
	rec.Emit(0.0125, events.DistressAssert, "memsys",
		map[string]any{"socket": 0, "controller": 1, "utilization": 0.81})
	rec.Emit(0.1, events.KelpActuate, "kelp",
		map[string]any{"action_low": "THROTTLE", "low_prefetchers": 4})

	for _, e := range rec.Since(0) {
		fmt.Printf("#%d t=%.4f %s from %s\n", e.Seq, e.Time, e.Type, e.Source)
	}
	// A poller resumes from the last sequence number it saw.
	fmt.Println("new events after #3:", len(rec.Since(3)))
	// Output:
	// #1 t=0.0000 agent.admit from agent
	// #2 t=0.0125 distress.assert from memsys
	// #3 t=0.1000 kelp.actuate from kelp
	// new events after #3: 0
}

// WriteJSONL renders a slice of events, here filtered by type, in the
// -events format of kelpbench and kelpsim.
func ExampleWriteJSONL() {
	rec := events.MustNew(64)
	rec.Emit(0.05, events.DistressAssert, "memsys",
		map[string]any{"socket": 0, "controller": 0})
	rec.Emit(0.10, events.DistressDeassert, "memsys",
		map[string]any{"socket": 0, "controller": 0})
	rec.Emit(0.10, events.KelpActuate, "kelp",
		map[string]any{"action_low": "NOP"})

	// Only the distress transitions, as the memory fabric saw them.
	if err := events.WriteJSONL(os.Stdout, rec.Since(0, events.DistressAssert, events.DistressDeassert)); err != nil {
		fmt.Println("write:", err)
	}
	// Output:
	// {"seq":1,"time":0.05,"type":"distress.assert","source":"memsys","fields":{"controller":0,"socket":0}}
	// {"seq":2,"time":0.1,"type":"distress.deassert","source":"memsys","fields":{"controller":0,"socket":0}}
}
