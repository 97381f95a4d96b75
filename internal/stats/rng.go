// Package stats provides the statistical substrate shared by every other
// package in the Jockey reproduction: deterministic random-number plumbing,
// parametric and empirical probability distributions over durations, and
// summary statistics (percentiles, coefficient of variation).
//
// Everything in the repository that needs randomness receives a *rand.Rand
// created by this package from an explicit seed, so all simulations and
// experiments are reproducible run-to-run.
package stats

import (
	"hash/fnv"
	"math/rand/v2"
)

// NewRNG returns a deterministic pseudo-random generator for the given seed.
// Two generators created with the same seed produce identical streams.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// NewSource returns the seeded PCG source underlying NewRNG. Callers that
// re-seed a long-lived generator (sim.Runner runs thousands of simulations
// on one *rand.Rand) keep the source and call ReseedSource between runs;
// the stream after a reseed is bit-identical to a fresh NewRNG(seed).
func NewSource(seed uint64) *rand.PCG {
	// Decorrelate the two PCG lanes so that nearby seeds (0, 1, 2, ...) do
	// not produce visibly correlated streams.
	return rand.NewPCG(SplitMix64(seed), SplitMix64(seed^0x9e3779b97f4a7c15))
}

// ReseedSource resets src to the state NewSource(seed) would create,
// without allocating. rand.Rand in math/rand/v2 keeps no buffered state of
// its own, so reseeding the source re-seeds any Rand wrapping it.
func ReseedSource(src *rand.PCG, seed uint64) {
	src.Seed(SplitMix64(seed), SplitMix64(seed^0x9e3779b97f4a7c15))
}

// SplitMix64 advances the SplitMix64 state x and returns the mixed output.
// It is used to derive independent sub-seeds from a master seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed produces a sub-seed from a master seed and a list of labels.
// The same (master, labels...) always yields the same sub-seed, and distinct
// labels yield (with overwhelming probability) distinct sub-seeds. It is the
// standard way experiments hand independent generators to their components.
func DeriveSeed(master uint64, labels ...string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(master >> (8 * i))
	}
	h.Write(buf[:])
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	return SplitMix64(h.Sum64())
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DeriveSeedInt is DeriveSeed(master, fmt.Sprint(n)) for n >= 0, without the
// per-call allocations of the variadic form (the hash interface, the label
// slice, the formatted string). Simulator hot paths that hash a task index on
// every dispatch use it; TestDeriveSeedIntMatchesDeriveSeed pins the
// bit-identity so placements never shift between the two spellings.
func DeriveSeedInt(master uint64, n int) uint64 {
	return SplitMix64(fnvInt(fnvMaster(master), n))
}

// DeriveSeedLabelInt is DeriveSeed(master, label, fmt.Sprint(ns[0]),
// fmt.Sprint(ns[1]), ...) for every n >= 0, allocation-free like
// DeriveSeedInt: the cluster derives every submitted job's seed from its id
// with it, and a C(p, a) build each simulation's seed from its (allocation,
// run) cell. TestDeriveSeedLabelIntMatchesDeriveSeed pins the bit-identity.
func DeriveSeedLabelInt(master uint64, label string, ns ...int) uint64 {
	h := fnvMaster(master)
	h *= fnvPrime64 // label separator byte 0: h ^= 0 is a no-op
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime64
	}
	for _, n := range ns {
		h = fnvInt(h, n)
	}
	return SplitMix64(h)
}

// fnvMaster is the FNV-1a state after hashing master's eight little-endian
// bytes, as DeriveSeed hashes them.
func fnvMaster(master uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(master >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// fnvInt continues FNV-1a state h with a label separator and the decimal
// digits of n >= 0.
func fnvInt(h uint64, n int) uint64 {
	h *= fnvPrime64 // label separator byte 0: h ^= 0 is a no-op
	var buf [20]byte
	p := len(buf)
	v := uint64(n)
	for {
		p--
		buf[p] = '0' + byte(v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for _, c := range buf[p:] {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
