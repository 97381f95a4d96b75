package rules_test

import (
	"testing"

	"github.com/jockeysim/jockey/internal/vet/rules"
	"github.com/jockeysim/jockey/internal/vet/vettest"
)

func TestWalltime(t *testing.T) {
	vettest.Run(t, "testdata/walltime/sim", rules.Walltime)
}

func TestWalltimeAllowsNonDeterministicPackages(t *testing.T) {
	vettest.Run(t, "testdata/walltime/experiments", rules.Walltime)
}

func TestWalltimeGridWorkerPool(t *testing.T) {
	vettest.Run(t, "testdata/walltime/grid", rules.Walltime)
}

func TestWalltimeFlightRecorder(t *testing.T) {
	vettest.Run(t, "testdata/walltime/flight", rules.Walltime)
}

func TestWalltimeFleetArbiter(t *testing.T) {
	vettest.Run(t, "testdata/walltime/fleet", rules.Walltime)
}

// TestWalltimeExemptsLookalikePackagePaths pins the full-import-path
// matching: a package whose final segment collides with a deterministic
// package ("sim") but lives outside the module's internal tree is exempt.
func TestWalltimeExemptsLookalikePackagePaths(t *testing.T) {
	vettest.RunPkg(t, "testdata/walltime/simclone", "example.com/fixtures/sim", rules.Walltime)
}

func TestOnePool(t *testing.T) {
	vettest.Run(t, "testdata/onepool/sim", rules.OnePool)
}

// TestOnePoolAllowsGrid: internal/grid is the pool the rule routes every
// goroutine to.
func TestOnePoolAllowsGrid(t *testing.T) {
	vettest.Run(t, "testdata/onepool/grid", rules.OnePool)
}

// TestOnePoolCoversHarnessPackages: unlike walltime, the rule binds every
// package, not only the deterministic ones.
func TestOnePoolCoversHarnessPackages(t *testing.T) {
	vettest.Run(t, "testdata/onepool/experiments", rules.OnePool)
}

// TestSeedFlow runs the three-package provenance fixture in dependency
// order: the stats miniature (analyzed under the real internal/stats path,
// so the intrinsics resolve), the non-deterministic helper package whose
// consumer/deriver facts cross the boundary, and the deterministic consumer
// where the violations surface.
func TestSeedFlow(t *testing.T) {
	vettest.RunPkgs(t, []vettest.Pkg{
		{Dir: "testdata/seedflow/statsfx", Path: rules.ModulePath + "/internal/stats"},
		{Dir: "testdata/seedflow/seedhelp", Path: rules.ModulePath + "/internal/seedhelp"},
		{Dir: "testdata/seedflow/sim", Path: rules.ModulePath + "/internal/sim"},
	}, rules.SeedFlow)
}

func TestHotAlloc(t *testing.T) {
	vettest.Run(t, "testdata/hotalloc/hot", rules.HotAlloc)
}

// TestHotAllocCalendarQueue runs the gate over bucketed calendar-queue
// idiom (internal/eventq's hot-path shape): amortized appends into
// queue-owned bucket slices must pass, while per-push slice rebuilds,
// boxing, and debug formatting are flagged.
func TestHotAllocCalendarQueue(t *testing.T) {
	vettest.Run(t, "testdata/hotalloc/calq", rules.HotAlloc)
}

// TestHotAllocWaterFill runs the gate over the indexed-heap water-fill
// idiom (internal/fleet's arbitration hot path): epoch reslices and
// amortized appends into the arbiter-owned bidder arena and heap index
// must pass, while fresh per-epoch slices, per-job utility buffers, sort
// closures, and debug formatting are flagged.
func TestHotAllocWaterFill(t *testing.T) {
	vettest.Run(t, "testdata/hotalloc/waterfill", rules.HotAlloc)
}

// TestHotAllocBatchDispatch runs the gate over the batch-dispatch idiom
// (internal/cluster's arrival-burst path): buffering task-end events in an
// engine-owned batch slice and flushing through one bulk insert must pass,
// while a fresh buffer per pass, map-keyed staging, and boxing are flagged.
func TestHotAllocBatchDispatch(t *testing.T) {
	vettest.Run(t, "testdata/hotalloc/batchdisp", rules.HotAlloc)
}

// TestSeedFlowHotAllocInteraction runs both analyzers over one fixture
// where single lines violate both rules, pinning that a scoped
// //jockeyvet:ignore suppresses exactly the named analyzer.
func TestSeedFlowHotAllocInteraction(t *testing.T) {
	vettest.Run(t, "testdata/interaction/sim", rules.SeedFlow, rules.HotAlloc)
}

func TestGlobalRand(t *testing.T) {
	vettest.Run(t, "testdata/globalrand/app", rules.GlobalRand)
}

func TestGlobalRandFlightReplay(t *testing.T) {
	vettest.Run(t, "testdata/globalrand/flight", rules.GlobalRand)
}

func TestGlobalRandFleetArrivals(t *testing.T) {
	vettest.Run(t, "testdata/globalrand/fleet", rules.GlobalRand)
}

func TestMapOrder(t *testing.T) {
	vettest.Run(t, "testdata/maporder/app", rules.MapOrder)
}

func TestPanicPath(t *testing.T) {
	vettest.Run(t, "testdata/panicpath/libpkg", rules.PanicPath)
}

func TestPanicPathAllowsMain(t *testing.T) {
	vettest.Run(t, "testdata/panicpath/cmdtool", rules.PanicPath)
}

func TestErrCtx(t *testing.T) {
	vettest.Run(t, "testdata/errctx/cluster", rules.ErrCtx)
}

// TestIgnoreDirective proves a reasoned //jockeyvet:ignore suppresses the
// diagnostic on exactly one line: the directive's own line when trailing
// code, the next line when standalone — and nothing more.
func TestIgnoreDirective(t *testing.T) {
	vettest.Run(t, "testdata/ignore/app", rules.GlobalRand)
}
