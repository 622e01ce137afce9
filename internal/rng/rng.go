// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the repository.
//
// Every stochastic component (program generation, mutation, dataset
// sampling, model initialization, fuzzing schedules) draws from an rng.Rand
// seeded explicitly, so that experiments are reproducible bit-for-bit given
// the same seed. The generator is based on SplitMix64 state advancing and a
// xoshiro256** output scrambler, which is fast, has a 2^256-1 period, and
// splits cleanly into independent streams.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; use Split to derive independent generators for goroutines.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output. It is
// used for seeding so that closely-related seeds produce unrelated streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// Split derives a new generator whose stream is independent of the receiver's
// future output. The receiver's state advances.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

// State exports the generator's internal state, so that a paused stream can
// be checkpointed and resumed elsewhere with FromState. Reading the state
// does not advance the stream.
func (r *Rand) State() [4]uint64 {
	return r.s
}

// FromState reconstructs a generator from a State export. The returned
// generator's future output is identical to what the exported generator
// would have produced.
func FromState(s [4]uint64) *Rand {
	return &Rand{s: s}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit value.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniformly distributed float64 in [0, 1). The quotient
// is explicitly rounded so that, inlined into a caller's x*Float64() + y,
// arm64 cannot fuse it into an FMA that amd64 never forms.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar Box-Muller method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Chance returns true with probability p (clamped to [0, 1]).
func (r *Rand) Chance(p float64) bool {
	return r.Float64() < p
}

// OneOf returns true with probability 1/n.
func (r *Rand) OneOf(n int) bool {
	return r.Intn(n) == 0
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes s in place (Fisher-Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle permutes n elements using the provided swap callback.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choose returns a random index weighted by the non-negative weights. The
// weights need not be normalized. It panics if weights is empty or sums to a
// non-positive value.
func (r *Rand) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: weights sum to zero")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
