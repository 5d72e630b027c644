package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic source of named random streams.
//
// Components should not share one raw source: if component A starts drawing
// an extra value, every later draw of component B shifts and the whole run
// changes. Stream derives an independent source from the seed and a stable
// name, so each component's randomness is isolated.
type RNG struct {
	seed int64
}

// NewRNG returns a stream source rooted at seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// Stream returns an independent stream derived from the seed and name.
// The same (seed, name) pair always yields the same stream.
func (r *RNG) Stream(name string) *Stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	src := &countingSource{}
	src.Seed(int64(h.Sum64() ^ (uint64(r.seed) * 0x9E3779B97F4A7C15)))
	return &Stream{src: src, r: rand.New(src)}
}

// Stream is one named math/rand stream whose position is a single integer:
// the number of values it has drawn from its source. Each source draw (an
// Int63 or a Uint64 call) advances Go's generator by exactly one step, so
// reseeding and skipping that many steps (Seek) resumes the stream exactly,
// which is what lets a task snapshot capture it.
type Stream struct {
	src *countingSource
	r   *rand.Rand
}

// Float64 draws a value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Pos returns how many values the stream has drawn from its source.
func (s *Stream) Pos() uint64 { return s.src.n }

// Seek moves the stream to position pos, as Pos reported it: it reseeds
// the source and skips pos values, so the next draw is the one that
// followed when Pos returned pos.
func (s *Stream) Seek(pos uint64) {
	s.src.Seed(s.src.seed)
	for ; s.src.n < pos; s.src.n++ {
		s.src.src.Uint64()
	}
}

// countingSource is a math/rand source that counts its draws.
type countingSource struct {
	seed int64
	src  rand.Source64
	n    uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Seed reseeds the source and resets its count.
func (c *countingSource) Seed(seed int64) {
	c.seed = seed
	if c.src == nil {
		c.src = rand.NewSource(seed).(rand.Source64)
	} else {
		c.src.Seed(seed)
	}
	c.n = 0
}
