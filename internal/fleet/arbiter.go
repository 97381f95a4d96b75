package fleet

import (
	"time"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/model"
)

// flatEps is the marginal-utility threshold below which an allocation step
// is considered flat. Jobs whose whole curve is flat (already certain to
// meet at the floor — the paper's "utility curve has gone flat") stay at
// the floor and their tokens go to the rest of the fleet.
const flatEps = 1e-9

// arbitrate re-divides this epoch's effective budget across the active
// jobs and actuates the new grants. It returns the granted total and the
// number of latched (guard-panic) jobs, for the epoch observer.
//
//jockey:hotpath
func (r *replay) arbitrate(now time.Duration) (granted, latched int) {
	r.heapOps = 0
	if len(r.active) == 0 {
		return 0, 0
	}
	budget := r.effectiveBudget()
	switch r.cfg.Arbitration {
	case FIFO:
		// The static baseline never revisits a grant: each job keeps its
		// admission reservation, outage or not.
		for _, fj := range r.active {
			fj.wanted = fj.reservation
			granted += fj.grant
		}
		return granted, 0
	case FairShare:
		r.fairShare(budget)
	case UtilityGreedy:
		latched = r.waterFill(now, budget)
	}
	for _, fj := range r.active {
		fj.handle.SetGuarantee(fj.grant)
		granted += fj.grant
	}
	return granted, latched
}

// fairShare hands each active job one token at a time in admission order
// until the budget (or everyone's grid top) is exhausted — an exact equal
// split with deterministic remainder placement, deadline-blind by design.
//
//jockey:hotpath
func (r *replay) fairShare(budget int) {
	cap := r.models.MaxTokens()
	for _, fj := range r.active {
		fj.grant = 0
		// The baseline's notion of desire stays its reservation: the gap
		// integration then charges misses to arbitration when fair-share
		// starves a tight job below what admission promised it.
		fj.wanted = fj.reservation
	}
	for budget > 0 {
		gave := false
		for _, fj := range r.active {
			if budget == 0 {
				break
			}
			if fj.grant >= cap {
				continue
			}
			fj.grant++
			budget--
			gave = true
		}
		if !gave {
			break
		}
	}
}

// bidder is one non-latched job's position in the epoch's water-fill: its
// candidate allocations (the model grid), the model-estimated deadline
// utility at each, and the rung currently granted. bestK/bestRate cache the
// job's best affordable jump for the marginal-utility heap; idx is -1 until
// the floor pass seats the job. The slice of bidders lives on the replay
// and is reused every epoch, so steady-state arbitration does not allocate.
type bidder struct {
	fj       *fleetJob
	cands    []int
	util     []float64
	idx      int32
	bestK    int32
	bestRate float64
}

// waterFill is the headline discipline: greedy marginal-utility
// water-filling over each job's model-estimated deadline utility.
//
// Latched (guard-panic) jobs are served first off the top: under
// containment their panic grant is capped at the admission reservation —
// the promise the arbiter actually made — so one sick job cannot starve
// feasible peers; with NoContainment the latch bids the whole grid top.
// Everyone else starts at the floor (the smallest grid allocation) and the
// remaining budget goes, step by step, to the job whose next candidate
// jump buys the most utility per token. Ties break in admission order.
//
// The greedy rounds run on an indexed max-heap over per-bidder marginal
// rates (see greedyFill); the retired O(rounds × bidders) scan survives in
// arbiter_ref_test.go as the reference implementation the heap is
// differential-tested against on every epoch of every test replay
// (Config.checkFill).
func (r *replay) waterFill(now time.Duration, budget int) (latched int) {
	remaining := budget
	r.bidders = r.bidders[:0]
	latchedJobs := r.latchedScratch[:0]
	for _, fj := range r.active {
		st := fj.handle.State()
		d := r.decide(fj, st)
		if fj.guard != nil && fj.guard.Mode() == control.GuardPanic {
			// Max-allocation latch: the model can no longer be trusted, so
			// the guard bids its panic grant. Containment keeps the job's
			// admission reservation — the promise the arbiter actually
			// made — off the top, and lets the panic soak up only budget
			// left over after every healthy peer is served. Without
			// containment the full panic bid comes off the top first, and
			// peers get whatever survives.
			fj.latched = true
			fj.wanted = d.Granted
			if r.cfg.NoContainment {
				fj.grant = min(d.Granted, remaining)
			} else {
				fj.grant = min(fj.reservation, remaining)
				latchedJobs = append(latchedJobs, fj)
			}
			remaining -= fj.grant
			latched++
			continue
		}
		fj.latched = false
		cands := fj.jk.Grid()
		util := fj.utilBuf
		for i, a := range cands {
			util[i] = float64(fj.arr.value) * fj.util.Utility(fj.ctrl.PredictAt(st, a))
		}
		// The unconstrained desire is the smallest candidate that attains
		// the curve's maximum — what the job's own controller would ask
		// for with no fleet around it.
		best := 0
		for i := 1; i < len(util); i++ {
			if util[i] > util[best]+flatEps {
				best = i
			}
		}
		fj.wanted = cands[best]
		fj.grant = 0
		r.bidders = append(r.bidders, bidder{fj: fj, cands: cands, util: util, idx: -1})
	}

	if r.cfg.checkFill != nil {
		defer r.cfg.checkFill(r, remaining)()
	}

	remaining = r.fill(remaining)

	// Leftover pass: budget nobody's curve wanted tops up contained
	// panic latches (admission order) toward their full bid — the sick
	// job gets every idle token, just never a healthy peer's.
	for _, fj := range latchedJobs {
		if remaining <= 0 {
			break
		}
		if extra := min(fj.wanted-fj.grant, remaining); extra > 0 {
			fj.grant += extra
			remaining -= extra
		}
	}
	r.latchedScratch = latchedJobs[:0]
	return latched
}

// fill seats every bidder at the floor and runs the greedy heap rounds;
// factored out of waterFill so tests can drive the exact production path
// on hand-built bidder sets against the reference scan.
//
//jockey:hotpath
func (r *replay) fill(remaining int) int {
	// Floor pass: every non-latched job gets the smallest grid allocation
	// (admission order) so nobody is silently starved to zero.
	for i := range r.bidders {
		b := &r.bidders[i]
		floor := b.cands[0]
		if floor > remaining {
			break
		}
		b.idx = 0
		b.fj.grant = floor
		remaining -= floor
	}
	return r.greedyFill(remaining)
}

// greedyFill runs the marginal water-fill rounds on an indexed max-heap:
// each bidder contributes (at most) one entry, its best affordable jump —
// the ascent to ANY higher candidate (which handles non-concave curves
// whose gain sits past a flat stretch) with the best utility-per-token
// rate, smallest rung on ties, eligible only above flatEps. The heap
// orders entries by (rate desc, admission asc), so its top — once
// validated — is exactly the pick the retired full scan made.
//
// Laziness is sound because remaining only shrinks: a bidder's cached best
// jump is an upper bound on its current best (shrinking the affordable set
// can only remove jumps, never improve one). A popped top whose cached
// jump is no longer affordable is recomputed under the tighter budget and
// re-seated; a top whose jump IS affordable is ≥ every other entry's upper
// bound, hence the true global argmax. Each grant advances a rung and each
// recompute follows a grant, so an epoch costs O(grants × (K + log n))
// instead of O(grants × n × K) — linear, not quadratic, in active jobs.
//
//jockey:hotpath
func (r *replay) greedyFill(remaining int) int {
	r.bheap = r.bheap[:0]
	for i := range r.bidders {
		b := &r.bidders[i]
		if b.idx < 0 {
			continue
		}
		if b.bestJump(remaining) {
			r.bheapPush(int32(i))
		}
	}
	for remaining > 0 && len(r.bheap) > 0 {
		b := &r.bidders[r.bheap[0]]
		cost := b.cands[b.bestK] - b.cands[b.idx]
		if cost > remaining {
			// Stale upper bound: the budget tightened since this entry was
			// cached. Recompute under what is actually left.
			if b.bestJump(remaining) {
				r.bheapFix()
			} else {
				r.bheapPop()
			}
			continue
		}
		remaining -= cost
		b.idx = b.bestK
		b.fj.grant = b.cands[b.idx]
		if b.bestJump(remaining) {
			r.bheapFix()
		} else {
			r.bheapPop()
		}
	}
	return remaining
}

// bestJump caches b's best affordable jump from its current rung, returning
// false when no eligible jump remains (curve flat or budget too tight).
// Scanning rungs in ascending order with a strict improvement test keeps
// the smallest rung among equal-rate maxima — the retired scan's tie-break.
//
//jockey:hotpath
func (b *bidder) bestJump(remaining int) bool {
	b.bestK = -1
	b.bestRate = 0
	base := b.util[b.idx]
	c0 := b.cands[b.idx]
	for k := int(b.idx) + 1; k < len(b.cands); k++ {
		cost := b.cands[k] - c0
		if cost > remaining {
			break
		}
		if rate := (b.util[k] - base) / float64(cost); rate > flatEps && rate > b.bestRate {
			b.bestK, b.bestRate = int32(k), rate
		}
	}
	return b.bestK >= 0
}

// bidderAbove orders the marginal-utility heap: higher rate first, earliest
// admission on ties (bidders are appended in admission order, so the slice
// index is the admission rank).
//
//jockey:hotpath
func (r *replay) bidderAbove(i, j int32) bool {
	bi, bj := &r.bidders[i], &r.bidders[j]
	if bi.bestRate != bj.bestRate {
		return bi.bestRate > bj.bestRate
	}
	return i < j
}

//jockey:hotpath
func (r *replay) bheapPush(i int32) {
	r.heapOps++
	r.bheap = append(r.bheap, i)
	c := len(r.bheap) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !r.bidderAbove(r.bheap[c], r.bheap[p]) {
			return
		}
		r.bheap[c], r.bheap[p] = r.bheap[p], r.bheap[c]
		c = p
	}
}

//jockey:hotpath
func (r *replay) bheapPop() {
	r.heapOps++
	n := len(r.bheap) - 1
	r.bheap[0] = r.bheap[n]
	r.bheap = r.bheap[:n]
	if n > 1 {
		r.bheapDown()
	}
}

// bheapFix re-seats the top entry after its rate was recomputed (rates only
// ever fall, so the entry can only sink).
//
//jockey:hotpath
func (r *replay) bheapFix() {
	r.heapOps++
	r.bheapDown()
}

//jockey:hotpath
func (r *replay) bheapDown() {
	i := 0
	n := len(r.bheap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		top := left
		if right := left + 1; right < n && r.bidderAbove(r.bheap[right], r.bheap[left]) {
			top = right
		}
		if !r.bidderAbove(r.bheap[top], r.bheap[i]) {
			return
		}
		r.bheap[i], r.bheap[top] = r.bheap[top], r.bheap[i]
		i = top
	}
}

// decide runs the job's control stack for this epoch. For guarded jobs this
// is what feeds the staleness detector and drives panic entry/recovery; the
// returned decision's grant is only used by the panic latch (water-filling
// overrides it otherwise).
//
//jockey:hotpath
func (r *replay) decide(fj *fleetJob, st model.State) control.Decision {
	if fj.guard != nil {
		return fj.guard.Decide(st)
	}
	// Unguarded utility-greedy probes the model directly via PredictAt;
	// running the plain controller's hysteresis would be dead state.
	return control.Decision{}
}
