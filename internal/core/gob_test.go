package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// TestGuardGobRoundTripPopulated guards Guard's hand-written gob hooks: the
// value sets every field, unexported ones included, so a field added to
// Guard but not to guardWire fails the round trip, and a field this test
// does not populate yet fails the zero check.
func TestGuardGobRoundTripPopulated(t *testing.T) {
	in := Guard{EnterAfter: 3, ExitAfter: 5, faulted: 2, clean: 1, degraded: true, entries: 4}
	rv := reflect.ValueOf(in)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Errorf("Guard.%s is zero: populate it", rv.Type().Field(i).Name)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var got Guard
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("gob round trip:\n got %+v\nwant %+v", got, in)
	}
}
