package sim

import "errors"

// Xorshift is an xorshift64* generator: small, fast, and separate from the
// simulation's math/rand streams, so the fault injectors that draw from it
// never perturb (or are perturbed by) the simulation's own randomness.
// Callers derive each generator's seed from a stable stream name, so
// enabling one fault class never shifts another's draw sequence.
type Xorshift struct{ state uint64 }

// splitmix64 expands a seed into a well-mixed value.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewXorshift returns a generator whose state is splitmix64(seed), replaced
// by a fixed nonzero constant in the one case it is zero (xorshift's fixed
// point).
func NewXorshift(seed uint64) *Xorshift {
	s := splitmix64(seed)
	if s == 0 {
		s = 0x2545F4914F6CDD1D
	}
	return &Xorshift{state: s}
}

// Next draws the next 64-bit value.
func (x *Xorshift) Next() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545F4914F6CDD1D
}

// Float64 draws a uniform value in [0, 1).
func (x *Xorshift) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// State returns the generator's whole state, for snapshots.
func (x *Xorshift) State() uint64 { return x.state }

// SetState resumes the generator at a state State returned. Zero is
// xorshift's fixed point, which no generator reaches, so it is rejected.
func (x *Xorshift) SetState(s uint64) error {
	if s == 0 {
		return errors.New("sim: xorshift state 0")
	}
	x.state = s
	return nil
}
