// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator.
//
// Every scenario in this repository must be exactly reproducible from a
// single root seed: the same seed must yield the same topology, the same
// packet loss, the same maintenance schedule, and therefore the same
// figures. math/rand's global state is unsuitable because independent
// subsystems would perturb each other's streams; instead each subsystem
// derives its own independent stream by splitting a parent source with a
// label. Splitting is stable under code evolution: adding a new consumer
// with a new label never disturbs existing streams.
//
// The core generator is SplitMix64 feeding a xoshiro256** state, both
// public-domain algorithms reimplemented here from their reference
// descriptions (Blackman & Vigna). Labels are folded into the seed with
// FNV-1a so Split("loss") and Split("rtt") are decorrelated.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic random stream. It is NOT safe for concurrent
// use; callers that fan out across goroutines must Split first and hand
// each goroutine its own Source.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is used only for seeding xoshiro state, per the authors' guidance.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources built from the same
// seed produce identical streams.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent child stream identified by label. The child
// depends on the parent's current state, so the order of Split calls
// matters; scenarios therefore perform all their Splits up front against a
// fresh root. Splitting does not advance the parent's visible stream in a
// way that correlates with the child's output.
func (r *Source) Split(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(r.Uint64() ^ h.Sum64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation, with the simple
	// rejection fallback; bias is negligible for our n (<2^32) but we do
	// the full rejection anyway because correctness is cheap here.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Int63 returns a uniform non-negative int64.
func (r *Source) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
