package fleet

import "testing"

// This file keeps the retired O(rounds × bidders) greedy water-fill as a
// reference implementation. The production path (greedyFill) runs the same
// discipline on an indexed max-heap; tests pin the two together by running
// fillRef on a snapshot of every epoch's bidder set (armRefCheck) and on
// hand-built edge cases, requiring grant-identical results.
//
// One deliberate nuance: the retired scan folds with an epsilon hysteresis
// (`rate > pickRate+flatEps`), so a later candidate had to beat the running
// pick by more than flatEps to displace it. The heap picks the strict
// argmax with the same (admission, rung) tie-break. The two agree unless
// two DISTINCT marginal rates fall within flatEps = 1e-9 of each other —
// a knife-edge no replay in the suite produces (the self-check would fail
// loudly if one ever did).

// refBidder is a plain copy of one bidder's curves and rung for fillRef.
type refBidder struct {
	cands []int
	util  []float64
	idx   int
}

// snapshotBidders captures the bidder set before the floor pass so fillRef
// can re-run the epoch from the same starting state.
func snapshotBidders(bs []bidder) []refBidder {
	ref := make([]refBidder, len(bs))
	for i := range bs {
		ref[i] = refBidder{cands: bs[i].cands, util: bs[i].util, idx: int(bs[i].idx)}
	}
	return ref
}

// fillRef is the retired floor pass + greedy rounds, verbatim except that
// grants stay in idx (grant = cands[idx]) instead of being actuated.
func fillRef(bidders []refBidder, remaining int) int {
	// Floor pass: every non-latched job gets the smallest grid allocation
	// (admission order) so nobody is silently starved to zero.
	for i := range bidders {
		b := &bidders[i]
		floor := b.cands[0]
		if floor > remaining {
			break
		}
		b.idx = 0
		remaining -= floor
	}

	// Greedy marginal water-fill. Each round picks the single affordable
	// jump (to ANY higher candidate, which handles non-concave curves
	// whose gain sits past a flat stretch) with the best utility-per-token
	// rate; earliest-admitted wins ties. Flat jobs never clear flatEps and
	// stay at the floor.
	for remaining > 0 {
		var pick *refBidder
		pickTo, pickRate := 0, 0.0
		for bi := range bidders {
			b := &bidders[bi]
			if b.idx < 0 {
				continue
			}
			for k := b.idx + 1; k < len(b.cands); k++ {
				cost := b.cands[k] - b.cands[b.idx]
				if cost > remaining {
					break
				}
				rate := (b.util[k] - b.util[b.idx]) / float64(cost)
				if rate > flatEps && rate > pickRate+flatEps {
					pick, pickTo, pickRate = b, k, rate
				}
			}
		}
		if pick == nil {
			break
		}
		remaining -= pick.cands[pickTo] - pick.cands[pick.idx]
		pick.idx = pickTo
	}
	return remaining
}

// armRefCheck makes every water-fill epoch of a replay run under cfg diff
// the heap rounds against fillRef, reporting any divergence to tb.
func armRefCheck(tb testing.TB, cfg *Config) {
	cfg.checkFill = func(r *replay, budget int) func() {
		ref := snapshotBidders(r.bidders)
		return func() { r.checkAgainstRef(tb, ref, budget) }
	}
}

// checkAgainstRef replays the epoch through fillRef and reports any grant
// divergence. It runs deferred from waterFill, after the heap rounds have
// actuated r.bidders.
func (r *replay) checkAgainstRef(tb testing.TB, ref []refBidder, remaining int) {
	fillRef(ref, remaining)
	for i := range ref {
		want := 0
		if ref[i].idx >= 0 {
			want = ref[i].cands[ref[i].idx]
		}
		got := 0
		if b := &r.bidders[i]; b.idx >= 0 {
			got = b.cands[b.idx]
		}
		if got != want {
			tb.Errorf("water-fill divergence: bidder %d granted %d, reference %d", i, got, want)
		}
	}
}
