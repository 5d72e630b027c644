package memsys

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// TestResolutionGobRoundTripPopulated guards Resolution's hand-written gob
// hooks: the value sets every field, unexported ones included, so a field
// added to Resolution but not to resolutionWire fails the round trip, and a
// field this test does not populate yet fails the zero check.
func TestResolutionGobRoundTripPopulated(t *testing.T) {
	in := &Resolution{
		Flows:              []FlowResult{{DRAMTraffic: 1, Granted: 0.5, BWFraction: 0.5, Latency: 1e-7}},
		Controllers:        []ControllerState{{Socket: 1, Index: 2, Offered: 3, Granted: 2, Capacity: 4, Distress: 0.25}},
		SocketBackpressure: []float64{0.9, 1},
		SocketSnoop:        []float64{1, 1.1},
		Links:              []LinkState{{From: 0, To: 1, Offered: 2, Capacity: 4, Adder: 1e-8}},
		cps:                3,
		seq:                7,
	}
	rv := reflect.ValueOf(in).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Errorf("Resolution.%s is zero: populate it", rv.Type().Field(i).Name)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	got := new(Resolution)
	if err := gob.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("gob round trip:\n got %+v\nwant %+v", got, in)
	}
}
