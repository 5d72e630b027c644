package agent

import (
	"testing"

	"kelp/internal/events"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

// The agent's flight recorder captures the whole decision trail: admission
// decisions from the agent itself, actuations from the Kelp runtime, and
// distress transitions from the memory fabric — in one ordered stream.
func TestFlightRecorderCapturesDecisionTrail(t *testing.T) {
	a := testAgent(t, policy.Kelp)
	rec := a.Events()
	if rec == nil {
		t.Fatal("agent has no recorder")
	}

	if err := a.AdmitML(cnn1(t), 2); err != nil {
		t.Fatal(err)
	}
	// A duplicate accelerated task is rejected — and recorded.
	if err := a.AdmitML(cnn1(t), 2); err == nil {
		t.Fatal("duplicate ML admitted")
	}
	for i := 0; i < 2; i++ {
		st, err := workload.NewStitch(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AdmitBatch(st); err != nil {
			t.Fatal(err)
		}
	}
	a.Run(2 * sim.Second)

	admits := rec.Since(0, events.AgentAdmit)
	if len(admits) != 3 {
		t.Fatalf("admits = %d, want 3", len(admits))
	}
	if admits[0].Fields["ml"] != true || admits[0].Fields["task"] != "CNN1" {
		t.Errorf("first admit = %+v", admits[0].Fields)
	}
	rejects := rec.Since(0, events.AgentReject)
	if len(rejects) != 1 {
		t.Fatalf("rejects = %d, want 1", len(rejects))
	}
	if r := rejects[0].Fields["reason"].(string); r == "" {
		t.Error("reject carries no reason")
	}

	acts := rec.Since(0, events.KelpActuate)
	if len(acts) == 0 {
		t.Fatal("no kelp.actuate events after 2 s with a 0.1 s period")
	}
	// Actuations carry both observed inputs and chosen outputs.
	for _, k := range []string{"action_low", "socket_bw", "saturation", "low_prefetchers", "low_cores", "backfill_cores"} {
		if _, ok := acts[0].Fields[k]; !ok {
			t.Errorf("kelp.actuate missing field %q", k)
		}
	}

	// The event stream is strictly seq-ordered with non-decreasing time.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq order broken at %d", i)
		}
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("time order broken at %d: %v after %v", i, evs[i].Time, evs[i-1].Time)
		}
	}
}

func TestEventCapacityOption(t *testing.T) {
	a, err := New(Config{
		Node:          node.DefaultConfig(),
		Policy:        policy.Baseline,
		Options:       policy.DefaultOptions(),
		EventCapacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		a.Events().Emit(float64(i), events.AgentAdmit, "test", nil)
	}
	if got := a.Events().Len(); got != 8 {
		t.Errorf("recorder holds %d of 10 events, want its capacity 8", got)
	}
	if _, err := New(Config{
		Node:          node.DefaultConfig(),
		Policy:        policy.Baseline,
		Options:       policy.DefaultOptions(),
		EventCapacity: -1,
	}); err == nil {
		t.Error("negative capacity accepted")
	}
}
