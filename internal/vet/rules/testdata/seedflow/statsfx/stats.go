// Fixture: a miniature of internal/stats, analyzed under the real
// internal/stats import path so the seedflow intrinsics (DeriveSeed,
// DeriveSeedInt, DeriveSeedLabelInt, SplitMix64) resolve and the consumer facts for
// NewRNG/NewSource/ReseedSource are derived exactly as they are for the
// real package. The package itself must come out clean: every generator
// here is parameter-seeded, which pushes the obligation to the callers.
package stats

import "math/rand/v2"

// SplitMix64 mixes x; seedflow summarizes it as a propagating deriver
// (derived out iff derived in) from the body alone.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed is an always-deriver intrinsic: its result is a derived seed
// whatever the inputs (the master seed is the experiment's root of trust).
func DeriveSeed(master uint64, labels ...string) uint64 {
	h := master
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * 0x100000001b3
		}
	}
	return SplitMix64(h)
}

// DeriveSeedInt is the allocation-free integer-label variant.
func DeriveSeedInt(master uint64, n int) uint64 {
	return SplitMix64(master ^ uint64(n)*0x9e3779b97f4a7c15)
}

// DeriveSeedLabelInt is the allocation-free labelled integer variant. Its
// body alone would not prove a derived result (the hash starts from a
// constant); it is a deriver only because seedflow lists it as an intrinsic.
func DeriveSeedLabelInt(master uint64, label string, ns ...int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	for _, n := range ns {
		h ^= uint64(n)
	}
	return h
}

// NewSource feeds its parameter into rand.NewPCG, making it a seed
// consumer: callers owe a derived seed at position 0.
func NewSource(seed uint64) *rand.PCG {
	return rand.NewPCG(SplitMix64(seed), SplitMix64(seed^0x9e3779b97f4a7c15))
}

// NewRNG chains through NewSource; the obligation propagates.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// ReseedSource re-seeds an existing generator in place; position 1 carries
// the seed obligation.
func ReseedSource(src *rand.PCG, seed uint64) {
	src.Seed(SplitMix64(seed), SplitMix64(seed^0x9e3779b97f4a7c15))
}
