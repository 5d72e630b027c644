package core

import (
	"bytes"
	"encoding/gob"
)

// Guard keeps its counters unexported (Degraded reads one) so they only
// move through Fault and Clean.
// The default gob encoding would drop them, so Guard implements explicit gob
// hooks for the durability layer's session snapshots.

type guardWire struct {
	EnterAfter, ExitAfter int
	Faulted, Clean        int
	Degraded              bool
	Entries               int
}

// GobEncode implements gob.GobEncoder.
func (g Guard) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(guardWire{
		EnterAfter: g.EnterAfter, ExitAfter: g.ExitAfter,
		Faulted: g.faulted, Clean: g.clean,
		Degraded: g.degraded, Entries: g.entries,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (g *Guard) GobDecode(data []byte) error {
	var w guardWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	g.EnterAfter, g.ExitAfter = w.EnterAfter, w.ExitAfter
	g.faulted, g.clean, g.degraded, g.entries = w.Faulted, w.Clean, w.Degraded, w.Entries
	return nil
}
