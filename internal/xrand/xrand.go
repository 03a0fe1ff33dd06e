// Package xrand provides a small, fast, deterministic and splittable
// pseudo-random number generator used throughout the simulator.
//
// The generator is xoshiro256** seeded through SplitMix64.  It is not
// cryptographically secure; it is designed for reproducible Monte Carlo
// experiments: a simulation seeded with a fixed 64-bit seed produces the
// same results regardless of the number of worker goroutines, because each
// logical stream is derived with Split rather than by sharing one generator.
package xrand

import "math"

// RNG is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct instances with New or Split.
// An RNG is not safe for concurrent use; derive one per goroutine.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the SplitMix64 state and returns the next output.
// It is used to expand seeds into full xoshiro state vectors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
// Distinct seeds yield independent-looking streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator state as if it had been created by New(seed).
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start in the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x853c49e6748fea9b
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives a new generator from this one.  The child stream is
// statistically independent of the parent's subsequent output, which makes
// Split suitable for handing one RNG to each worker goroutine.
func (r *RNG) Split() *RNG {
	// Mix two outputs through SplitMix64 so that consecutive splits land in
	// well-separated regions of the state space.
	seed := r.Uint64() ^ rotl(r.Uint64(), 33) ^ 0xa3ec647659359acd
	return New(seed)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n).  It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n).  It panics if n == 0.
// Lemire-style rejection keeps the result unbiased.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n // (2^64 - n) mod n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a geometric variate with success probability p,
// counting the number of failures before the first success (support {0,1,...}).
// It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Sample picks k distinct integers uniformly from [0, n) in O(k) expected
// time using Floyd's algorithm.  The result order is unspecified.
// It panics if k > n or either argument is negative.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("xrand: Sample needs 0 <= k <= n")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
