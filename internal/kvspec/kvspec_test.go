package kvspec

import (
	"testing"

	"kelp/internal/sim"
)

type spec struct {
	Seed uint64
	A, B float64
}

func (s *spec) fields() []Field { return []Field{{Key: "alpha", V: &s.A}, {Key: "beta", V: &s.B}} }

func TestFormatParseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   spec
		want string
	}{
		{spec{}, "off"},
		{spec{Seed: 7}, "seed=7"},
		{spec{B: 0.25}, "beta=0.25"},
		{spec{Seed: 3, A: 1e-9, B: 2}, "seed=3,alpha=1e-09,beta=2"},
	} {
		got := Format(tc.in.Seed, tc.in.fields())
		if got != tc.want {
			t.Errorf("Format(%+v) = %q, want %q", tc.in, got, tc.want)
		}
		var back spec
		if err := Parse("p", got, &back.Seed, back.fields()); err != nil || back != tc.in {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", got, back, err, tc.in)
		}
	}
	var s spec
	if err := Parse("p", " Seed = 4 , ALPHA=0.5,alpha=0.75 ", &s.Seed, s.fields()); err != nil ||
		s != (spec{Seed: 4, A: 0.75}) {
		t.Errorf("spaced, mixed-case, repeated keys parsed to %+v, %v", s, err)
	}
}

func TestParseErrors(t *testing.T) {
	for in, want := range map[string]string{
		"alpha":       `p: "alpha" is not key=value`,
		"seed=-1":     `p: seed: strconv.ParseUint: parsing "-1": invalid syntax`,
		"alpha=x":     `p: alpha: strconv.ParseFloat: parsing "x": invalid syntax`,
		"gamma=1":     `p: unknown key "gamma"`,
		"alpha=1,,b=": `p: "" is not key=value`,
	} {
		var s spec
		if err := Parse("p", in, &s.Seed, s.fields()); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v, want %q", in, err, want)
		}
	}
}

// TestStreamSeeding pins Stream to FNV-1a over the name and then each
// word, XORed into the root seed: the injectors' recorded fault sequences
// depend on it.
func TestStreamSeeding(t *testing.T) {
	fnv := func(name string, words ...uint64) uint64 {
		h := uint64(14695981039346656037)
		for _, c := range []byte(name) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		for _, w := range words {
			h = (h ^ w) * 1099511628211
		}
		return h
	}
	for _, tc := range []struct {
		seed  uint64
		name  string
		words []uint64
	}{
		{42, "drop", nil},
		{7, "crash", []uint64{3 + 0x9E37}},
	} {
		got := Stream(tc.seed, tc.name, tc.words...)
		want := sim.NewXorshift(tc.seed ^ fnv(tc.name, tc.words...))
		for i := range 4 {
			if g, w := got.Next(), want.Next(); g != w {
				t.Fatalf("Stream(%d, %q, %v) draw %d = %d, want %d", tc.seed, tc.name, tc.words, i, g, w)
			}
		}
	}
}
