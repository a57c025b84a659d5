// Package rng provides fast, deterministic, splittable pseudo-random number
// generators for the simulation engines.
//
// The simulators in this repository must satisfy three requirements that the
// standard library's math/rand does not cover simultaneously:
//
//  1. Reproducibility across runs and across worker counts: a simulation run
//     with seed s must produce the same trajectory whether it is executed on
//     one goroutine or sixteen. This requires per-worker streams derived
//     deterministically from a master seed (splitting), not a single shared
//     locked source.
//  2. Speed: the per-ball engines draw two uniform indices per ball per round,
//     i.e. hundreds of millions of variates per experiment. The generator and
//     the bounded-integer reduction must be branch-light.
//  3. Statistical quality adequate for measuring w.h.p. events: the paper's
//     experiments estimate tail probabilities (Lemmas 14 and 15), so the
//     generator must pass basic equidistribution tests.
//
// The package implements three generators from scratch:
//
//   - splitmix64: a tiny 64-bit mixer used for seeding and stream derivation.
//     Its increments-by-golden-gamma structure makes any two distinct seed
//     derivations independent for practical purposes.
//   - xoshiro256**: the workhorse generator (256-bit state, period 2^256−1).
//   - PCG-XSH-RR (32-bit output): an alternate family used in cross-checks so
//     that a statistical artefact of one generator cannot silently shape an
//     experimental conclusion.
//
// Bounded integers use Lemire's multiply-shift rejection method, which is
// unbiased and needs fewer divisions than the classical modulo approach.
package rng

import "math/bits"

// goldenGamma is the 64-bit golden-ratio increment used by splitmix64.
// It is the closest odd integer to 2^64/phi.
const goldenGamma = 0x9E3779B97F4A7C15

// SplitMix64 is a tiny, fast 64-bit generator. It is primarily used to seed
// and split the larger generators, but it is a perfectly serviceable
// generator in its own right (it passes BigCrush).
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += goldenGamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x. It is a high-quality 64-bit
// hash used for deriving stream seeds and for hashing (round, ball) pairs
// in counterfactual replay.
func Mix64(x uint64) uint64 {
	x += goldenGamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Xoshiro256 implements the xoshiro256** 1.0 generator of Blackman and
// Vigna. State must never be all zero; the constructors guarantee this.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
	// cached normal variate for the polar method
	hasGauss bool
	gauss    float64
}

// NewXoshiro256 returns a generator whose 256-bit state is filled from seed
// via splitmix64, per the generator authors' recommendation.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	g := &Xoshiro256{
		s0: sm.Uint64(),
		s1: sm.Uint64(),
		s2: sm.Uint64(),
		s3: sm.Uint64(),
	}
	if g.s0|g.s1|g.s2|g.s3 == 0 {
		// Astronomically unlikely, but the all-zero state is absorbing.
		g.s0 = goldenGamma
	}
	return g
}

// NewInitStream returns the generator an initial-state builder draws from
// for seed: NewXoshiro256(seed) jumped 2^128 steps ahead. A run's engine
// draws from NewXoshiro256 of its run seed, and batch expansion copies
// that seed into a seeded init, so the jump keeps the initial state and
// the first rounds from reusing the same random numbers.
func NewInitStream(seed uint64) *Xoshiro256 {
	g := NewXoshiro256(seed)
	g.Jump()
	return g
}

// Uint64 returns the next 64-bit value.
func (g *Xoshiro256) Uint64() uint64 {
	result := bits.RotateLeft64(g.s1*5, 7) * 9
	t := g.s1 << 17
	g.s2 ^= g.s0
	g.s3 ^= g.s1
	g.s1 ^= g.s2
	g.s0 ^= g.s3
	g.s2 ^= t
	g.s3 = bits.RotateLeft64(g.s3, 45)
	return result
}

// Uint64n returns a uniform integer in [0, n) using Lemire's unbiased
// multiply-shift method. n must be > 0.
func (g *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path: power of two.
	if n&(n-1) == 0 {
		return g.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(g.Uint64(), n)
	if lo < n {
		thresh := -n % n // == (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(g.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (g *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(g.Uint64n(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (g *Xoshiro256) Int63() int64 {
	return int64(g.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (g *Xoshiro256) Float64() float64 {
	return float64(g.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method with one-variate caching.
func (g *Xoshiro256) NormFloat64() float64 {
	if g.hasGauss {
		g.hasGauss = false
		return g.gauss
	}
	for {
		u := 2*g.Float64() - 1
		v := 2*g.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := polarScale(s)
		g.gauss = v * f
		g.hasGauss = true
		return u * f
	}
}

// polarScale computes sqrt(-2 ln s / s) without importing math in the hot
// struct file; it delegates to the math package via a tiny wrapper kept in
// mathdep.go so the dependency is explicit and testable.
func polarScale(s float64) float64 { return sqrt(-2 * logf(s) / s) }

// Perm returns a uniform random permutation of [0, n) as a fresh slice.
func (g *Xoshiro256) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := g.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (g *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		swap(i, j)
	}
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls of
// Uint64. It can be used to create 2^128 non-overlapping subsequences.
func (g *Xoshiro256) Jump() {
	jump := [4]uint64{0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C, 0xA9582618E03FC9AA, 0x39ABDC4529B1661C}
	var t0, t1, t2, t3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				t0 ^= g.s0
				t1 ^= g.s1
				t2 ^= g.s2
				t3 ^= g.s3
			}
			g.Uint64()
		}
	}
	g.s0, g.s1, g.s2, g.s3 = t0, t1, t2, t3
}

// Split derives n independent child generators from the parent's seed space.
// The children are seeded via distinct splitmix64 hashes of the parent's
// next outputs, so the parent remains usable afterwards and the children's
// sequences are independent of the number of children requested before them.
func (g *Xoshiro256) Split(n int) []*Xoshiro256 {
	out := make([]*Xoshiro256, n)
	base := g.Uint64()
	for i := range out {
		out[i] = NewXoshiro256(Mix64(base + uint64(i)*goldenGamma))
	}
	return out
}

// PCG32 implements the PCG-XSH-RR 64/32 generator of O'Neill. It is used as
// an independent generator family for statistical cross-checks.
type PCG32 struct {
	state uint64
	inc   uint64 // must be odd
}

// NewPCG32 returns a PCG32 initialised from seed and stream sequence seq.
func NewPCG32(seed, seq uint64) *PCG32 {
	p := &PCG32{inc: seq<<1 | 1}
	p.state = 0
	p.Uint32()
	p.state += seed
	p.Uint32()
	return p
}

// Uint32 returns the next 32-bit value.
func (p *PCG32) Uint32() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint64 returns the next 64-bit value by concatenating two 32-bit outputs.
func (p *PCG32) Uint64() uint64 {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	return hi<<32 | lo
}

// Uint32n returns a uniform integer in [0, n), unbiased. n must be > 0.
func (p *PCG32) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("rng: Uint32n with n == 0")
	}
	hi, lo := bits.Mul32(p.Uint32(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul32(p.Uint32(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n) for n up to 2^31-1.
func (p *PCG32) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(p.Uint32n(uint32(n)))
}

// Source is the minimal interface shared by all generators in this package.
// Hot loops should use the concrete types; Source exists for code where
// generator family is a swappable experiment parameter.
type Source interface {
	Uint64() uint64
}

// Doubler adapts any Source to produce uniform float64 in [0,1).
func Doubler(s Source) float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}
