// Package profile implements the per-application QoS profiles of the
// paper's deployment model (§IV-D): "when applications are first scheduled
// onto the server, the corresponding profile is loaded by Kelp, which
// includes high and low watermarks for each measurement."
//
// Profiles are machine-portable: watermarks are expressed as fractions of
// controller capacity and multiples of base latency, and materialized into
// absolute thresholds against a concrete node's memory configuration. They
// serialize as JSON, the format a cluster scheduler (Borglet) would ship.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"kelp/internal/core"
	"kelp/internal/memsys"
)

// Watermarks are machine-relative thresholds.
type Watermarks struct {
	// HiPriorityBWHighFrac/LowFrac are fractions of one controller's
	// bandwidth, applied to the high-priority subdomain.
	HiPriorityBWHighFrac float64 `json:"hi_priority_bw_high_frac"`
	HiPriorityBWLowFrac  float64 `json:"hi_priority_bw_low_frac"`
	// SocketBWHighFrac/LowFrac are fractions of the socket's bandwidth.
	SocketBWHighFrac float64 `json:"socket_bw_high_frac"`
	SocketBWLowFrac  float64 `json:"socket_bw_low_frac"`
	// LatencyHighX/LowX are multiples of the unloaded memory latency.
	LatencyHighX float64 `json:"latency_high_x"`
	LatencyLowX  float64 `json:"latency_low_x"`
	// SaturationHigh/Low are absolute distress duty cycles in [0, 1].
	SaturationHigh float64 `json:"saturation_high"`
	SaturationLow  float64 `json:"saturation_low"`
}

// Profile is one application's QoS profile.
type Profile struct {
	// Name identifies the accelerated application.
	Name string `json:"name"`
	// Watermarks drive Algorithm 1's comparisons.
	Watermarks Watermarks `json:"watermarks"`
	// MinLowCores floors the low-priority subdomain's cores.
	MinLowCores int `json:"min_low_cores"`
	// MaxBackfillCores bounds backfilling into the ML subdomain.
	MaxBackfillCores int `json:"max_backfill_cores"`
	// SamplePeriodSec is Kelp's control interval (10 s in production).
	SamplePeriodSec float64 `json:"sample_period_sec"`
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile: empty name")
	}
	w := p.Watermarks
	type pair struct {
		name    string
		hi, low float64
	}
	for _, c := range []pair{
		{"hi_priority_bw", w.HiPriorityBWHighFrac, w.HiPriorityBWLowFrac},
		{"socket_bw", w.SocketBWHighFrac, w.SocketBWLowFrac},
		{"latency", w.LatencyHighX, w.LatencyLowX},
		{"saturation", w.SaturationHigh, w.SaturationLow},
	} {
		// NaN compares false against everything, so it would sail through
		// the ordering checks below and wedge the control loop at NOP;
		// reject malformed profiles here, at admission.
		if math.IsNaN(c.hi) || math.IsNaN(c.low) || math.IsInf(c.hi, 0) || math.IsInf(c.low, 0) {
			return fmt.Errorf("profile %s: %s watermarks hi=%v low=%v are not finite",
				p.Name, c.name, c.hi, c.low)
		}
		if c.hi <= 0 || c.low < 0 || c.hi <= c.low {
			return fmt.Errorf("profile %s: %s watermarks hi=%v low=%v", p.Name, c.name, c.hi, c.low)
		}
	}
	if w.HiPriorityBWHighFrac > 1 || w.SocketBWHighFrac > 1 {
		return fmt.Errorf("profile %s: bandwidth fractions must be <= 1", p.Name)
	}
	if w.SaturationHigh > 1 {
		return fmt.Errorf("profile %s: saturation watermark > 1", p.Name)
	}
	if p.MinLowCores < 1 {
		return fmt.Errorf("profile %s: min_low_cores = %d", p.Name, p.MinLowCores)
	}
	if p.MaxBackfillCores < 0 {
		return fmt.Errorf("profile %s: max_backfill_cores = %d", p.Name, p.MaxBackfillCores)
	}
	if math.IsNaN(p.SamplePeriodSec) || p.SamplePeriodSec <= 0 {
		return fmt.Errorf("profile %s: sample_period_sec = %v", p.Name, p.SamplePeriodSec)
	}
	return nil
}

// Materialize converts the portable watermarks into absolute thresholds for
// a concrete memory system.
func (p Profile) Materialize(mem memsys.Config) core.Watermarks {
	w := p.Watermarks
	return core.Watermarks{
		HiPriorityBWHigh: w.HiPriorityBWHighFrac * mem.BWPerController,
		HiPriorityBWLow:  w.HiPriorityBWLowFrac * mem.BWPerController,
		SocketBWHigh:     w.SocketBWHighFrac * mem.SocketBW(),
		SocketBWLow:      w.SocketBWLowFrac * mem.SocketBW(),
		LatencyHigh:      w.LatencyHighX * mem.BaseLatency,
		LatencyLow:       w.LatencyLowX * mem.BaseLatency,
		SaturationHigh:   w.SaturationHigh,
		SaturationLow:    w.SaturationLow,
	}
}

// Default returns the conservative profile the evaluation uses, matching
// core.DefaultWatermarks.
func Default(name string) Profile {
	return Profile{
		Name: name,
		Watermarks: Watermarks{
			HiPriorityBWHighFrac: 0.70,
			HiPriorityBWLowFrac:  0.45,
			SocketBWHighFrac:     0.75,
			SocketBWLowFrac:      0.50,
			LatencyHighX:         2.0,
			LatencyLowX:          1.3,
			SaturationHigh:       0.05,
			SaturationLow:        0.01,
		},
		MinLowCores:      2,
		MaxBackfillCores: 6,
		SamplePeriodSec:  10,
	}
}

// Encode writes the profile as indented JSON.
func (p Profile) Encode(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Decode reads and validates a profile from JSON.
func Decode(r io.Reader) (Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Profile{}, fmt.Errorf("profile: decode: %w", err)
	}
	return p, p.Validate()
}

// Save writes the profile to a file.
func Save(path string, p Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Encode(f); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a profile from a file.
func Load(path string) (Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return Profile{}, err
	}
	defer f.Close()
	return Decode(f)
}

// Registry maps application names to profiles, the node-local cache a
// Borglet-style agent would keep.
type Registry struct {
	profiles map[string]Profile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{profiles: make(map[string]Profile)}
}

// Put validates and stores a profile.
func (r *Registry) Put(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.profiles[p.Name] = p
	return nil
}

// Get returns the named profile, falling back to the conservative default
// when the scheduler shipped none — Kelp must still protect unprofiled
// tasks.
func (r *Registry) Get(name string) Profile {
	if p, ok := r.profiles[name]; ok {
		return p
	}
	return Default(name)
}
