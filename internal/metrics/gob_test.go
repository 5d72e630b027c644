package metrics

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// TestGobRoundTripPopulated guards the hand-written gob hooks: each value
// sets every field, unexported ones included, so a field added to Meter or
// Histogram but not to its wire mirror fails the round trip, and a field
// this test does not populate yet fails the zero check.
func TestGobRoundTripPopulated(t *testing.T) {
	for _, v := range []any{
		Meter{total: 1, totalAll: 2, startTime: 3, started: true, lastTime: 4},
		&Histogram{min: 1e-6, growth: 1.05, counts: []uint64{1, 0, 2}, n: 3, sum: 0.5, maxSeen: 0.3, minSeen: 1e-5},
	} {
		gobRoundTrip(t, v)
	}
}

func gobRoundTrip(t *testing.T, in any) {
	t.Helper()
	rv := reflect.Indirect(reflect.ValueOf(in))
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Errorf("%s.%s is zero: populate it", rv.Type(), rv.Type().Field(i).Name)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	out := reflect.New(reflect.TypeOf(in))
	if err := gob.NewDecoder(&buf).Decode(out.Interface()); err != nil {
		t.Fatal(err)
	}
	if got := out.Elem().Interface(); !reflect.DeepEqual(got, in) {
		t.Errorf("%s gob round trip:\n got %+v\nwant %+v", rv.Type(), got, in)
	}
}
