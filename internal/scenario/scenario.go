// Package scenario defines a JSON description of a colocation experiment —
// the accelerated workload, the low-priority mix, the isolation policy, and
// the measurement windows — so runs are reproducible artifacts rather than
// command lines. kelpsim consumes these files with -scenario.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"kelp/internal/experiments"
	"kelp/internal/policy"
	"kelp/internal/workload"
)

// TaskSpec is one low-priority task in the mix.
type TaskSpec struct {
	// Kind: Stream, Stitch, CPUML, DRAM, LLC, RemoteDRAM.
	Kind string `json:"kind"`
	// Threads for Stream/CPUML (and thread-count overrides elsewhere).
	Threads int `json:"threads,omitempty"`
	// Level for antagonists: L, M, H.
	Level string `json:"level,omitempty"`
	// RemoteFrac for RemoteDRAM.
	RemoteFrac float64 `json:"remote_frac,omitempty"`
	// Backfill marks the instance Kelp backfills.
	Backfill bool `json:"backfill,omitempty"`
	// RemoteSocket pins the instance's threads to the non-ML socket.
	RemoteSocket bool `json:"remote_socket,omitempty"`
}

// Spec is one experiment description.
type Spec struct {
	// ML: RNN1, CNN1, CNN2, CNN3.
	ML string `json:"ml"`
	// Policy: BL, CT, KP-SD, KP, HW-FG, MBA.
	Policy string `json:"policy"`
	// CPU is the low-priority mix.
	CPU []TaskSpec `json:"cpu"`
	// WarmupSec / MeasureSec bound the run (defaults 3 / 2).
	WarmupSec  float64 `json:"warmup_sec,omitempty"`
	MeasureSec float64 `json:"measure_sec,omitempty"`
}

// ParseML resolves a workload name.
func ParseML(s string) (experiments.MLKind, error) {
	for _, m := range experiments.MLKinds() {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown ML workload %q", s)
}

// ParsePolicy resolves a policy abbreviation.
func ParsePolicy(s string) (policy.Kind, error) {
	for _, k := range policy.AllKinds() {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown policy %q", s)
}

// ParseLevel resolves an antagonist level.
func ParseLevel(s string) (workload.Level, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "", "H":
		return workload.LevelHigh, nil
	case "M":
		return workload.LevelMedium, nil
	case "L":
		return workload.LevelLow, nil
	}
	return 0, fmt.Errorf("scenario: unknown level %q", s)
}

// parseCPUKind resolves a task kind.
func parseCPUKind(s string) (experiments.CPUKind, error) {
	kinds := []experiments.CPUKind{
		experiments.Stream, experiments.Stitch, experiments.CPUML,
		experiments.DRAMAggressor, experiments.LLCAggressor, experiments.RemoteDRAM,
	}
	for _, k := range kinds {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown CPU task kind %q", s)
}

// Resolved is the executable form of a Spec.
type Resolved struct {
	ML      experiments.MLKind
	Policy  policy.Kind
	CPU     []experiments.CPUSpec
	Warmup  float64
	Measure float64
}

// Resolve validates the spec and converts it to harness inputs.
func (s Spec) Resolve() (*Resolved, error) {
	ml, err := ParseML(s.ML)
	if err != nil {
		return nil, err
	}
	pol, err := ParsePolicy(s.Policy)
	if err != nil {
		return nil, err
	}
	out := &Resolved{ML: ml, Policy: pol, Warmup: s.WarmupSec, Measure: s.MeasureSec}
	if out.Warmup == 0 {
		out.Warmup = 3
	}
	if out.Measure == 0 {
		out.Measure = 2
	}
	if out.Warmup < 0 || out.Measure <= 0 {
		return nil, fmt.Errorf("scenario: windows warmup=%v measure=%v", out.Warmup, out.Measure)
	}
	for i, t := range s.CPU {
		kind, err := parseCPUKind(t.Kind)
		if err != nil {
			return nil, fmt.Errorf("cpu[%d]: %w", i, err)
		}
		lvl, err := ParseLevel(t.Level)
		if err != nil {
			return nil, fmt.Errorf("cpu[%d]: %w", i, err)
		}
		if t.Threads < 0 {
			return nil, fmt.Errorf("cpu[%d]: threads = %d", i, t.Threads)
		}
		if t.RemoteFrac < 0 || t.RemoteFrac > 1 {
			return nil, fmt.Errorf("cpu[%d]: remote_frac = %v", i, t.RemoteFrac)
		}
		out.CPU = append(out.CPU, experiments.CPUSpec{
			Kind:         kind,
			Threads:      t.Threads,
			Level:        lvl,
			RemoteFrac:   t.RemoteFrac,
			Backfill:     t.Backfill,
			RemoteSocket: t.RemoteSocket,
		})
	}
	return out, nil
}

// Decode reads a spec from JSON.
func Decode(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if _, err := s.Resolve(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads a spec from a file.
func Load(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	return Decode(f)
}
