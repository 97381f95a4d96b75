package fleet

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// The heap water-fill must grant exactly what the retired greedy scan
// granted. Full replays pin it epoch by epoch through armRefCheck
// (checkAgainstRef re-runs fillRef on every epoch's bidder snapshot);
// hand-built bidder sets pin the edge geometry the replays may not hit.

// TestWaterFillMatchesReferenceOnReplays runs the stress replay — drift,
// rack outage, deferred admissions, guard panics — and a broader thousand-
// job-scale arrival stream with the differential check armed on every
// epoch. Any grant divergence between fill and fillRef fails the test.
func TestWaterFillMatchesReferenceOnReplays(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		cfg := stressConfig(7, UtilityGreedy, guarded)
		armRefCheck(t, &cfg)
		mustRun(t, cfg)
	}
	cfg := Config{
		Seed:             11,
		Machines:         200,
		SlotsPerMachine:  5,
		Budget:           1000,
		Arrivals:         400,
		MeanInterarrival: 30 * time.Second,
	}
	armRefCheck(t, &cfg)
	res := mustRun(t, cfg)
	if res.Admitted < 100 {
		t.Fatalf("differential replay admitted only %d jobs; too small to exercise the heap", res.Admitted)
	}
}

// mkBidder builds one synthetic bidder the way waterFill's preamble does:
// seated below the floor, curves supplied directly.
func mkBidder(cands []int, util []float64) bidder {
	return bidder{fj: &fleetJob{}, cands: cands, util: util, idx: -1}
}

// runBoth drives the production fill and the reference fillRef from the
// same starting state and requires identical rungs and leftover budget.
func runBoth(t *testing.T, name string, bs []bidder, budget int) *replay {
	t.Helper()
	r := &replay{bidders: bs}
	ref := snapshotBidders(r.bidders)
	left := r.fill(budget)
	refLeft := fillRef(ref, budget)
	if left != refLeft {
		t.Errorf("%s: leftover %d, reference %d", name, left, refLeft)
	}
	for i := range ref {
		if int(r.bidders[i].idx) != ref[i].idx {
			t.Errorf("%s: bidder %d at rung %d, reference %d", name, i, r.bidders[i].idx, ref[i].idx)
		}
	}
	return r
}

func TestWaterFillEdgeCases(t *testing.T) {
	t.Run("all-flat-curves", func(t *testing.T) {
		// Every curve is flat: nobody clears flatEps, everyone holds the
		// floor and the rest of the budget is left over.
		bs := []bidder{
			mkBidder([]int{2, 4, 8}, []float64{1, 1, 1}),
			mkBidder([]int{3, 6, 12}, []float64{0.5, 0.5, 0.5}),
		}
		r := runBoth(t, "all-flat", bs, 100)
		if g0, g1 := r.bidders[0].fj.grant, r.bidders[1].fj.grant; g0 != 2 || g1 != 3 {
			t.Errorf("flat curves granted (%d, %d), want floors (2, 3)", g0, g1)
		}
	})
	t.Run("budget-below-every-floor", func(t *testing.T) {
		bs := []bidder{
			mkBidder([]int{5, 10}, []float64{0, 1}),
			mkBidder([]int{4, 8}, []float64{0, 1}),
		}
		r := runBoth(t, "below-floor", bs, 3)
		for i := range r.bidders {
			if r.bidders[i].fj.grant != 0 {
				t.Errorf("bidder %d granted %d on a budget below every floor", i, r.bidders[i].fj.grant)
			}
		}
	})
	t.Run("single-job-whole-budget", func(t *testing.T) {
		bs := []bidder{mkBidder([]int{1, 2, 4, 8, 16}, []float64{0, 0.3, 0.6, 0.9, 1.0})}
		r := runBoth(t, "single-job", bs, 16)
		if g := r.bidders[0].fj.grant; g != 16 {
			t.Errorf("single job granted %d of a 16-token budget, want 16", g)
		}
	})
	t.Run("budget-runs-out-mid-floor", func(t *testing.T) {
		// The floor pass stops at the first unaffordable floor; later
		// bidders stay unseated even if their floors are smaller.
		bs := []bidder{
			mkBidder([]int{2, 4}, []float64{0, 1}),
			mkBidder([]int{5, 10}, []float64{0, 1}),
			mkBidder([]int{1, 2}, []float64{0, 1}),
		}
		runBoth(t, "mid-floor", bs, 6)
	})
	t.Run("non-concave-curve", func(t *testing.T) {
		// The gain sits past a flat stretch: the best jump skips rungs.
		bs := []bidder{
			mkBidder([]int{1, 2, 3, 10}, []float64{0, 0, 0, 5}),
			mkBidder([]int{1, 3}, []float64{0, 0.5}),
		}
		runBoth(t, "non-concave", bs, 12)
	})
	t.Run("exact-tie-earliest-admission", func(t *testing.T) {
		// Identical curves: every marginal rate ties exactly, and the
		// budget covers only one jump — it must go to the earlier bidder.
		bs := []bidder{
			mkBidder([]int{1, 3}, []float64{0, 1}),
			mkBidder([]int{1, 3}, []float64{0, 1}),
		}
		r := runBoth(t, "exact-tie", bs, 4)
		if g0, g1 := r.bidders[0].fj.grant, r.bidders[1].fj.grant; g0 != 3 || g1 != 1 {
			t.Errorf("tie granted (%d, %d), want the earlier bidder to win (3, 1)", g0, g1)
		}
	})
}

// TestWaterFillRandomizedDifferential fuzzes bidder geometry: random grids
// and utility curves (including non-monotone ones), random budgets, and
// compares fill against fillRef. Rates in this regime differ by far more
// than flatEps, so the reference's epsilon fold and the heap's strict
// argmax coincide — any mismatch is a heap bug.
func TestWaterFillRandomizedDifferential(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(3, "waterfill-fuzz"))
	for trial := 0; trial < 300; trial++ {
		nb := 1 + int(rng.Int64N(20))
		bs := make([]bidder, 0, nb)
		for i := 0; i < nb; i++ {
			nk := 2 + int(rng.Int64N(6))
			cands := make([]int, nk)
			util := make([]float64, nk)
			c := 1 + int(rng.Int64N(4))
			u := 0.0
			for k := 0; k < nk; k++ {
				cands[k] = c
				c += 1 + int(rng.Int64N(6))
				util[k] = u
				// Mostly rising, sometimes flat, sometimes dipping.
				switch rng.Int64N(4) {
				case 0:
				case 1:
					u -= float64(rng.Int64N(3))
				default:
					u += float64(1 + rng.Int64N(8))
				}
			}
			bs = append(bs, mkBidder(cands, util))
		}
		budget := int(rng.Int64N(120))
		runBoth(t, "fuzz", bs, budget)
		if t.Failed() {
			t.Fatalf("trial %d diverged (geometry above)", trial)
		}
	}
}

// TestGreedyFillZeroAllocs pins the heap water-fill to zero steady-state
// allocations: the bidder arena, heap index, and per-job utility buffers
// are all standing state, so an epoch at fleet scale allocates nothing.
func TestGreedyFillZeroAllocs(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(9, "waterfill-allocs"))
	r := &replay{}
	for i := 0; i < 500; i++ {
		cands := []int{1 + int(rng.Int64N(3)), 5 + int(rng.Int64N(5)), 12 + int(rng.Int64N(9))}
		util := []float64{0, float64(rng.Int64N(10)), float64(rng.Int64N(20))}
		r.bidders = append(r.bidders, mkBidder(cands, util))
	}
	cycle := func() {
		for i := range r.bidders {
			r.bidders[i].idx = -1
			r.bidders[i].fj.grant = 0
		}
		r.fill(1200)
	}
	cycle() // grow the heap index to its high-water mark
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("water-fill epoch allocated %.1f times, want 0", allocs)
	}
}

// TestEpochStatsArbiterCost checks the observer surface: utility-greedy
// epochs report bidders and heap ops, and the heap-op count stays within a
// small constant of the work a linear-in-active epoch is allowed — the
// fleet-scale contract jockeyd -v prints.
func TestEpochStatsArbiterCost(t *testing.T) {
	var maxBidders, maxOps, epochs int
	cfg := stressConfig(5, UtilityGreedy, false)
	cfg.OnEpoch = func(s EpochStats) {
		epochs++
		if s.Bidders > maxBidders {
			maxBidders = s.Bidders
		}
		if s.HeapOps > maxOps {
			maxOps = s.HeapOps
		}
		// Every push/pop/re-seat follows a seat, a grant, or a budget
		// tightening; with K grid rungs per job the total is bounded by a
		// few ops per rung per bidder. 8× bidders × rungs is far above any
		// honest epoch and far below the quadratic the scan paid.
		if s.Bidders > 0 && s.HeapOps > 8*s.Bidders*maxGridRungs(t) {
			t.Errorf("epoch at %v: %d heap ops for %d bidders exceeds the linear budget", s.At, s.HeapOps, s.Bidders)
		}
	}
	mustRun(t, cfg)
	if maxBidders == 0 {
		t.Fatal("no epoch reported bidders; observer not wired")
	}
	if maxOps == 0 {
		t.Fatal("no epoch reported heap ops; observer not wired")
	}

	// The baselines never touch the heap: their cost fields stay zero.
	var fifoOps int
	cfg = stressConfig(5, FIFO, false)
	cfg.OnEpoch = func(s EpochStats) { fifoOps += s.HeapOps + s.Bidders }
	mustRun(t, cfg)
	if fifoOps != 0 {
		t.Fatalf("FIFO reported arbiter heap cost %d, want 0", fifoOps)
	}
	_ = epochs
}

// maxGridRungs is the largest candidate-grid length any model exposes —
// the K in the arbiter's O(grants × (K + log n)) epoch bound.
func maxGridRungs(t *testing.T) int {
	t.Helper()
	models := NewModelCache(99)
	n := 0
	for _, shape := range fleetShapes {
		jk, err := models.Model(shape)
		if err != nil {
			t.Fatal(err)
		}
		if len(jk.Grid()) > n {
			n = len(jk.Grid())
		}
	}
	return n
}

// TestWantedHonoursFlatEps: a bidder's unconstrained desire is the smallest
// candidate within flatEps of its curve's best. Two candidates whose
// weighted utilities differ by less than flatEps leave it at the smaller
// one; a gain of twice flatEps moves it to the larger.
func TestWantedHonoursFlatEps(t *testing.T) {
	const u = 3 * 0.9 // an arrival value of 3 times a utility of 0.9
	for _, tc := range []struct {
		name string
		util []float64
		want int
	}{
		{"within flatEps", []float64{u, u + flatEps/2}, 0},
		{"within flatEps of a later best", []float64{u, u + 3*flatEps, u + 3.5*flatEps}, 1},
		{"beyond flatEps", []float64{u, u + 2*flatEps}, 1},
	} {
		if got := wantedRung(tc.util); got != tc.want {
			t.Errorf("%s: wanted rung %d of utilities %v, want %d", tc.name, got, tc.util, tc.want)
		}
	}
}
