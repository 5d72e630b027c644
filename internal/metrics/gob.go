package metrics

import (
	"bytes"
	"encoding/gob"
	"math"
)

// Gob wire mirrors. Meter and Histogram keep their fields unexported so the
// measurement API stays narrow; the durability layer still needs to move them
// across a process restart byte-exactly, so each type implements
// gob.GobEncoder/GobDecoder through an exported mirror struct. gob encodes
// float64 values by bit pattern, so round-tripping preserves results exactly.

type meterWire struct {
	Total     float64
	TotalAll  float64
	StartTime float64
	Started   bool
	LastTime  float64
}

// GobEncode implements gob.GobEncoder.
func (m Meter) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(meterWire{
		Total: m.total, TotalAll: m.totalAll, StartTime: m.startTime,
		Started: m.started, LastTime: m.lastTime,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *Meter) GobDecode(data []byte) error {
	var w meterWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	m.total, m.totalAll, m.startTime = w.Total, w.TotalAll, w.StartTime
	m.started, m.lastTime = w.Started, w.LastTime
	return nil
}

type histogramWire struct {
	Min     float64
	Growth  float64
	Counts  []uint64
	N       uint64
	Sum     float64
	MaxSeen float64
	MinSeen float64
}

// GobEncode implements gob.GobEncoder.
func (h *Histogram) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(histogramWire{
		Min: h.min, Growth: h.growth, Counts: h.counts,
		N: h.n, Sum: h.sum, MaxSeen: h.maxSeen, MinSeen: h.minSeen,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (h *Histogram) GobDecode(data []byte) error {
	var w histogramWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	h.min, h.growth, h.logGrowth, h.counts = w.Min, w.Growth, math.Log(w.Growth), w.Counts
	h.n, h.sum, h.maxSeen, h.minSeen = w.N, w.Sum, w.MaxSeen, w.MinSeen
	return nil
}
