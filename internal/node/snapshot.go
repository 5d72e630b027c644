package node

import (
	"fmt"
	"math"

	"kelp/internal/cgroup"
	"kelp/internal/faults"
	"kelp/internal/memsys"
	"kelp/internal/perfmon"
	"kelp/internal/sim"
)

// Snapshot is a point-in-time capture of a node's full mutable simulation
// state: engine clock and controller schedule, per-core prefetch flags,
// cgroup knobs, monitor accumulators, the last memory resolution (feeding
// the hardware prefetch governor), governor smoothing state, the fault
// injector's state when one is attached, and every task's own state. It
// shares no memory with the node and may be restored any number of times
// onto nodes rebuilt from the same configuration.
//
// Controller-internal state (the Kelp runtime, CoreThrottle, MBA) lives
// outside the node, in policy.State.
//
// The durability layer gob-encodes a Snapshot as is. Task states are `any`
// values whose concrete types register themselves with gob in the workload
// package.
type Snapshot struct {
	Engine   sim.EngineState
	Prefetch []bool
	Groups   []cgroup.GroupState
	Monitor  perfmon.State
	MemLast  *memsys.Resolution
	Distress map[int]float64
	Faults   *faults.InjectorState
	Names    []string
	Tasks    []any
}

// Snapshot captures the node's state.
func (n *Node) Snapshot() *Snapshot {
	s := &Snapshot{
		Engine:   n.engine.State(),
		Prefetch: n.proc.PrefetchState(),
		Groups:   n.cgroups.State(),
		Monitor:  n.mon.State(),
		Names:    make([]string, len(n.tasks)),
		Tasks:    make([]any, len(n.tasks)),
	}
	if last := n.mem.Last(); last != nil {
		s.MemLast = last.Clone()
	}
	if n.distressEWMA != nil {
		s.Distress = make(map[int]float64, len(n.distressEWMA))
		for k, v := range n.distressEWMA {
			s.Distress[k] = v
		}
	}
	if n.faults != nil {
		st := n.faults.State()
		s.Faults = &st
	}
	for i, bt := range n.tasks {
		s.Names[i] = bt.task.Name()
		s.Tasks[i] = bt.task.TaskSnapshot()
	}
	return s
}

// Restore installs a snapshot onto a node rebuilt from the same
// configuration: same topology, same groups created, same tasks registered
// in the same order, same engine controllers, and a fault injector exactly
// when the snapshotted node had one. The horizon is voided first, so the
// first step after a restore, or after one that failed part way, runs the
// whole pipeline.
func (n *Node) Restore(s *Snapshot) error {
	n.horizon = math.Inf(-1)
	if s == nil {
		return fmt.Errorf("node: nil snapshot")
	}
	if len(s.Tasks) != len(n.tasks) || len(s.Names) != len(n.tasks) {
		return fmt.Errorf("node: snapshot has %d tasks and %d names, node %d tasks",
			len(s.Tasks), len(s.Names), len(n.tasks))
	}
	for i, bt := range n.tasks {
		if bt.task.Name() != s.Names[i] {
			return fmt.Errorf("node: snapshot task %d is %q, node has %q",
				i, s.Names[i], bt.task.Name())
		}
	}
	if (s.Faults != nil) != (n.faults != nil) {
		return fmt.Errorf("node: snapshot fault injector present %t, node %t", s.Faults != nil, n.faults != nil)
	}
	if err := n.engine.RestoreState(s.Engine); err != nil {
		return err
	}
	if err := n.proc.RestorePrefetchState(s.Prefetch); err != nil {
		return err
	}
	if err := n.cgroups.Restore(s.Groups); err != nil {
		return err
	}
	if err := n.mon.Restore(s.Monitor); err != nil {
		return err
	}
	if s.Faults != nil {
		if err := n.faults.Restore(*s.Faults); err != nil {
			return err
		}
	}
	if s.MemLast != nil {
		n.mem.SetLast(s.MemLast.Clone())
	} else {
		n.mem.SetLast(nil)
	}
	n.distressEWMA = nil
	if s.Distress != nil {
		n.distressEWMA = make(map[int]float64, len(s.Distress))
		for k, v := range s.Distress {
			n.distressEWMA[k] = v
		}
	}
	for i, bt := range n.tasks {
		if err := bt.task.TaskRestore(s.Tasks[i]); err != nil {
			return err
		}
	}
	return nil
}
