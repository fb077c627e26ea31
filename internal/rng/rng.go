// Package rng provides small, fast, deterministic random number generation
// for the websyn simulation pipeline.
//
// Everything in the pipeline that needs randomness draws from an *rng.Source
// seeded explicitly by the caller, so any experiment is reproducible
// bit-for-bit from its seed. The stdlib math/rand is deliberately not used:
// its global state makes runs harder to pin down, and the pipeline needs
// splittable streams (one independent sub-stream per simulated user shard)
// which splitmix64 provides naturally.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source based on splitmix64.
//
// splitmix64 is the 64-bit finalizer-based generator from Steele, Lea and
// Flood, "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014). It
// passes BigCrush, has a full 2^64 period over its state increment, and —
// crucially for the simulator — supports cheap "splitting": deriving an
// independent child stream from a parent without sharing state.
//
// The zero value is a valid source seeded with 0; most callers should use
// New.
type Source struct {
	state uint64
}

// golden is the odd constant 2^64/phi used as the splitmix64 state increment.
const golden = 0x9E3779B97F4A7C15

// New returns a Source seeded with seed. Distinct seeds give statistically
// independent streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives a child Source from s. The child's stream is independent of
// the parent's future output. Calling Split advances the parent.
func (s *Source) Split() *Source {
	// Mix the parent's next raw output into a fresh state. The extra mix64
	// decorrelates child streams spawned in sequence.
	return &Source{state: mix64(s.Uint64() + golden)}
}

// SplitN derives n independent child sources in one call.
func (s *Source) SplitN(n int) []*Source {
	kids := make([]*Source, n)
	for i := range kids {
		kids[i] = s.Split()
	}
	return kids
}

// mix64 is the splitmix64 output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method: unbiased without a modulo in
	// the common path.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles xs in place (Fisher-Yates).
func (s *Source) ShuffleInts(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// PickString returns a uniformly chosen element of xs. It panics on an empty
// slice.
func (s *Source) PickString(xs []string) string {
	return xs[s.Intn(len(xs))]
}

// Geometric returns a sample from a geometric distribution with success
// probability p: the number of failures before the first success (support
// {0, 1, 2, ...}). p must be in (0, 1].
func (s *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0")
	}
	n := 0
	for !s.Bool(p) {
		n++
		if n > 1<<20 {
			// Statistically unreachable for sane p; guards against a loop on
			// denormal p values.
			return n
		}
	}
	return n
}

// Norm returns a standard normal sample.
func (s *Source) Norm() float64 {
	// Polar (Marsaglia) variant: rejection-samples a point in the unit disc.
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
