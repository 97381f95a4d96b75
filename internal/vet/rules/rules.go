// Package rules holds the eight jockeyvet analyzers that machine-check the
// repository's determinism and performance contracts (DESIGN.md,
// "Determinism contract"):
//
//	walltime    no wall-clock reads in the deterministic packages
//	globalrand  no global or time-seeded randomness anywhere
//	maporder    no order-dependent effects inside range-over-map loops
//	panicpath   no bare panics outside internal/invariant
//	errctx      errors leaving internal/cluster and internal/control carry
//	            origin context and wrap causes with %w
//	seedflow    every RNG in the deterministic packages is seeded from a
//	            value derived from stats.DeriveSeed (cross-package, via facts)
//	hotalloc    //jockey:hotpath function bodies contain no allocating
//	            constructs
//	onepool     no go statements, runtime.GOMAXPROCS or sync imports
//	            outside internal/grid, the one worker pool
//
// Every rule honors the //jockeyvet:ignore [analyzer] <reason> escape hatch
// (applied by the internal/vet driver, not by the individual analyzers).
package rules

import (
	"strings"

	"github.com/jockeysim/jockey/internal/vet"
)

// ModulePath is this repository's module path; the deterministic-package
// set is keyed on full import paths beneath it so look-alike final segments
// (fixture packages, a future testdata/.../sim) cannot be swept in.
const ModulePath = "github.com/jockeysim/jockey"

// DeterministicPackages names the packages (by full import path) whose
// behavior must be a pure function of their inputs and seeds: the C(p, a)
// model, the cluster replay, and everything they are built from. cmd/ and
// the experiment harness may read the wall clock (progress logs, measured
// speedups); these packages may not.
var DeterministicPackages = map[string]bool{
	ModulePath + "/internal/dag":      true,
	ModulePath + "/internal/eventq":   true,
	ModulePath + "/internal/sim":      true,
	ModulePath + "/internal/cluster":  true,
	ModulePath + "/internal/model":    true,
	ModulePath + "/internal/control":  true,
	ModulePath + "/internal/profile":  true,
	ModulePath + "/internal/stats":    true,
	ModulePath + "/internal/progress": true,
	ModulePath + "/internal/workload": true,
	ModulePath + "/internal/grid":     true,
	ModulePath + "/internal/flight":   true,
	ModulePath + "/internal/fleet":    true,
}

// isDeterministic reports whether the package at path is bound by the
// determinism contract. Test-variant unit paths ("pkg [pkg.test]") are
// reduced to the base package so the gate matches what the base unit sees.
func isDeterministic(path string) bool {
	return DeterministicPackages[basePath(path)]
}

// basePath strips the " [pkg.test]" suffix the go command appends to
// test-variant compilation units.
func basePath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// All returns the full suite in rule-table order.
func All() []*vet.Analyzer {
	return []*vet.Analyzer{Walltime, GlobalRand, MapOrder, PanicPath, ErrCtx, SeedFlow, HotAlloc, OnePool}
}
