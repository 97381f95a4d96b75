// Fixture: a deterministic package (analyzed as internal/sim) consuming
// RNGs. Every generator must be seeded from the stats derivation chain;
// literal seeds, unseeded state, and laundered helpers are flagged — and
// the obligations arrive across package boundaries via facts (seedhelp.Gen
// and stats.NewSource/ReseedSource are consumers discovered while checking
// their own packages, not this one).
package sim

import (
	"math/rand/v2"

	"github.com/jockeysim/jockey/internal/seedhelp"
	"github.com/jockeysim/jockey/internal/stats"
)

// Config carries a seed across a construction boundary: filling the field
// with a literal is the violation, reading it back is trusted.
type Config struct {
	Name string
	Seed uint64
}

// Derived seeds flowing through intrinsics, local derivers, tracked
// helpers, and struct fields are all clean.
func clean(master uint64, cfg Config) *rand.Rand {
	a := stats.NewRNG(stats.DeriveSeed(master, "a"))
	b := seedhelp.Gen(stats.DeriveSeedInt(master, 1))
	c := stats.NewRNG(seedhelp.Mix(stats.DeriveSeed(master, "c")))
	d := stats.NewRNG(subSeed(master, 4))
	e := stats.NewRNG(cfg.Seed)
	f := stats.NewSource(stats.DeriveSeedLabelInt(master, "job", 6))
	_ = []*rand.Rand{a, b, c, d, e, rand.New(f)}
	return stats.NewRNG(stats.DeriveSeed(master, "r"))
}

// subSeed is a local deriver: summarized from its body, no annotation
// needed.
func subSeed(master uint64, i int) uint64 {
	return stats.DeriveSeedInt(master, i)
}

// spawn forwards its parameter into a cross-package consumer, inheriting
// the obligation: spawn itself becomes a seed consumer.
func spawn(seed uint64) *rand.Rand {
	return seedhelp.Gen(seed)
}

func literalSeeds(master uint64) {
	_ = seedhelp.Gen(7)     // want `seed reaching Gen is a literal/constant`
	_ = stats.NewSource(42) // want `seed reaching NewSource is a literal/constant`
	_ = rand.NewPCG(1, 2)   // want `seed reaching NewPCG is a literal/constant` `seed reaching NewPCG is a literal/constant`
	_ = spawn(123)          // want `seed reaching spawn is a literal/constant`
	entropy := func() uint64 { return master }
	_ = stats.NewRNG(entropy()) // want `produced by an indirect call`
}

func reseedWithLiteral(master uint64) {
	src := stats.NewSource(stats.DeriveSeed(master, "src"))
	stats.ReseedSource(src, 5) // want `seed reaching ReseedSource is a literal/constant`
}

func launderedSeeds(master uint64) {
	_ = seedhelp.Gen(seedhelp.Next())      // want `laundered through Next`
	_ = stats.NewRNG(localLaunder(master)) // want `laundered through localLaunder`
}

// localLaunder has a constant return path, so its result is not reliably
// derived from its input.
func localLaunder(x uint64) uint64 {
	if x == 0 {
		return 1
	}
	return x * 2
}

func unseededState() *rand.Rand {
	return rand.New(&rand.PCG{}) // want `unseeded generator`
}

func fillSeedField(master uint64) (Config, Config) {
	good := Config{Name: "good", Seed: stats.DeriveSeed(master, "good")}
	bad := Config{Name: "bad", Seed: 99} // want `seed reaching Seed field is a literal/constant`
	return good, bad
}
