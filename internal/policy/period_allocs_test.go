package policy_test

import (
	"testing"

	"kelp/internal/policy"
)

// TestControlPeriodAllocs pins the heap allocations of one control period
// of the golden colocations, no recorder or injector attached: each
// measured run is one 1000-tick sample period, the node's ticks and the
// controller's Control together. The PMU read fills a sample the period
// owns (perfmon.Monitor.WindowInto), and re-asserting an unchanged cpuset
// copies neither the pool's prefix (cpu.Set.Prefix) nor the mask
// (cgroup.Manager.SetCPUs), so no controller allocates: not the MBA
// controller, not the Kelp runtime (KP), not CoreThrottle (CT).
// testing.AllocsPerRun truncates its average, so a decision history that
// grows by doubling does not count.
func TestControlPeriodAllocs(t *testing.T) {
	period := policy.DefaultOptions().SamplePeriod
	for ctrl, limit := range map[string]float64{"KP": 0, "CT": 0, "MBA": 0} {
		n := goldenNode(t, ctrl, nil)
		n.Run(20 * period)
		avg := testing.AllocsPerRun(50, func() { n.Run(period) })
		t.Logf("%s: %v allocs per control period", ctrl, avg)
		if avg > limit {
			t.Errorf("%s: one control period allocates %v times, want at most %v", ctrl, avg, limit)
		}
	}
}
