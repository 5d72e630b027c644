package events

import (
	"encoding/json"
	"fmt"
)

// RecorderState is a portable capture of a recorder's buffered events and
// counters, used by the durability layer to carry a session's flight
// recorder across a process restart. It serializes through JSON rather than
// gob because Event.Fields is a map[string]any: JSON is the recorder's
// native output format, and a JSON round trip re-renders to the exact same
// bytes (numbers decode to float64, and encoding/json prints an integral
// float64 back without an exponent or trailing zeros), which preserves the
// byte-identical /events guarantee after recovery.
type RecorderState struct {
	NextSeq uint64  `json:"next_seq"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// GobEncode implements gob.GobEncoder by delegating to JSON (see the type
// comment for why).
func (s RecorderState) GobEncode() ([]byte, error) { return json.Marshal(s) }

// GobDecode implements gob.GobDecoder.
func (s *RecorderState) GobDecode(data []byte) error { return json.Unmarshal(data, s) }

// State captures the recorder's buffered events and counters.
// Subscriptions are runtime wiring, not state, and are not captured.
func (r *Recorder) State() RecorderState {
	if r == nil {
		return RecorderState{NextSeq: 1}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RecorderState{NextSeq: r.nextSeq, Dropped: r.dropped}
	st.Events = make([]Event, 0, r.size)
	for i := 0; i < r.size; i++ {
		st.Events = append(st.Events, r.ring[(r.start+i)%len(r.ring)])
	}
	return st
}

// Restore replaces the recorder's buffered events and counters with a state
// captured by State. The ring capacity is unchanged; a state holding more
// events than the capacity keeps the newest and counts the rest as dropped,
// mirroring what live capacity pressure would have done.
func (r *Recorder) Restore(st RecorderState) error {
	if r == nil {
		return fmt.Errorf("events: restore on nil recorder")
	}
	if st.NextSeq < 1 {
		return fmt.Errorf("events: restore with next_seq = %d", st.NextSeq)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := st.Events
	dropped := st.Dropped
	if len(evs) > len(r.ring) {
		dropped += uint64(len(evs) - len(r.ring))
		evs = evs[len(evs)-len(r.ring):]
	}
	r.start, r.size = 0, len(evs)
	copy(r.ring, evs)
	for i := len(evs); i < len(r.ring); i++ {
		r.ring[i] = Event{}
	}
	r.nextSeq, r.dropped = st.NextSeq, dropped
	return nil
}
