package cluster

import (
	"fmt"
	"testing"
)

// This file keeps the retired full-fleet walks of the scheduling pass as
// reference implementations. The production pass repairs only the jobs in
// its dirty set and reads the eviction pick off the spare-top heap; init
// installs checkAgainstRef as the per-pass hook (checkPass), so every
// scheduling pass of every test in this package diffs that incremental
// state against the walks it replaced:
//
//   - refReclassify, the retired reclassify, walks every live job with the
//     contention factor read off the clock, and must find nothing to move;
//   - checkRankPartition re-derives each live job's guaranteed class from
//     scratch and compares it with the rank partition;
//   - refYoungestSpare, the retired eviction scan over live jobs in id
//     order, must pick the spare-top heap's root.
//
// A divergence panics, which fails the test (or fuzz input) that drove the
// pass. Benchmarks turn the hook off with withoutPassCheck.

func init() { checkPass = checkAgainstRef }

// withoutPassCheck disables the reference hook until tb's cleanup, for
// benchmarks, whose numbers must measure the production pass alone.
func withoutPassCheck(tb testing.TB) {
	prev := checkPass
	checkPass = nil
	tb.Cleanup(func() { checkPass = prev })
}

// refEffectiveGuarantee is the retired effectiveGuarantee: the contention
// factor re-evaluated from the clock on every call.
func refEffectiveGuarantee(c *Cluster, jr *jobRun) int {
	f := c.contentionFrac()
	if f >= 1 {
		return jr.guarantee
	}
	return int(float64(jr.guarantee) * f)
}

// refReclassify is the retired reclassify, verbatim except that it reports
// how many attempts it moved: a full walk over every live job.
func refReclassify(c *Cluster) int {
	st := &c.store
	moves := 0
	for _, jr := range c.live {
		if jr.liveRunning == 0 {
			continue
		}
		target := refEffectiveGuarantee(c, jr)
		if jr.liveRunning < target {
			target = jr.liveRunning
		}
		for jr.guarCount > target {
			s := jr.guarHeap.s[0]
			st.maxRemove(&jr.guarHeap, s)
			st.flags[s] &^= flagGuar
			st.maxPush(&jr.spareMax, s)
			st.minPush(&jr.spareMin, s)
			jr.guarCount--
			moves++
		}
		for jr.guarCount < target {
			s := jr.spareMin.s[0]
			st.minRemove(&jr.spareMin, s)
			st.maxRemove(&jr.spareMax, s)
			st.flags[s] |= flagGuar
			st.maxPush(&jr.guarHeap, s)
			jr.guarCount++
			moves++
		}
		for len(jr.spareMin.s) > 0 && len(jr.guarHeap.s) > 0 &&
			st.less(jr.spareMin.s[0], jr.guarHeap.s[0]) {
			g := jr.guarHeap.s[0]
			sp := jr.spareMin.s[0]
			st.maxRemove(&jr.guarHeap, g)
			st.flags[g] &^= flagGuar
			st.maxPush(&jr.spareMax, g)
			st.minPush(&jr.spareMin, g)
			st.minRemove(&jr.spareMin, sp)
			st.maxRemove(&jr.spareMax, sp)
			st.flags[sp] |= flagGuar
			st.maxPush(&jr.guarHeap, sp)
			moves += 2
		}
	}
	return moves
}

// refYoungestSpare is the retired eviction scan: every live job in job-id
// order, each contributing the later of its two spare heap tops, with a
// strict less so the first job keeps a tie.
func refYoungestSpare(c *Cluster) (int32, *jobRun) {
	st := &c.store
	best := int32(-1)
	var bestJob *jobRun
	for _, jr := range c.jobs {
		if !jr.arrived || jr.completed {
			continue
		}
		cand := int32(-1)
		if len(jr.spareMax.s) > 0 {
			cand = jr.spareMax.s[0]
		}
		if len(jr.dupHeap.s) > 0 && (cand < 0 || st.less(cand, jr.dupHeap.s[0])) {
			cand = jr.dupHeap.s[0]
		}
		if cand >= 0 && (best < 0 || st.less(best, cand)) {
			best, bestJob = cand, jr
		}
	}
	return best, bestJob
}

// checkRankPartition re-derives one job's classes by linear scans, trusting
// no heap order: the guaranteed class must hold exactly
// min(effective guarantee, running primaries) attempts, every one of them
// started before every spare primary.
func checkRankPartition(c *Cluster, jr *jobRun) error {
	st := &c.store
	if jr.guarCount != len(jr.guarHeap.s) || jr.liveRunning != len(jr.guarHeap.s)+len(jr.spareMax.s) ||
		len(jr.spareMin.s) != len(jr.spareMax.s) {
		return fmt.Errorf("class counts: guarCount %d, liveRunning %d, heaps %d/%d/%d",
			jr.guarCount, jr.liveRunning, len(jr.guarHeap.s), len(jr.spareMax.s), len(jr.spareMin.s))
	}
	target := refEffectiveGuarantee(c, jr)
	if jr.liveRunning < target {
		target = jr.liveRunning
	}
	if jr.guarCount != target {
		return fmt.Errorf("guaranteed class holds %d attempts, rank partition %d", jr.guarCount, target)
	}
	latestGuar := int32(-1)
	for _, s := range jr.guarHeap.s {
		if st.flags[s]&(flagGuar|flagDup) != flagGuar {
			return fmt.Errorf("guaranteed-heap slot %d has flags %b", s, st.flags[s])
		}
		if latestGuar < 0 || st.less(latestGuar, s) {
			latestGuar = s
		}
	}
	for _, s := range jr.spareMax.s {
		if st.flags[s]&(flagGuar|flagDup) != 0 {
			return fmt.Errorf("spare-heap slot %d has flags %b", s, st.flags[s])
		}
		if latestGuar >= 0 && !st.less(latestGuar, s) {
			return fmt.Errorf("spare slot %d started before guaranteed slot %d", s, latestGuar)
		}
	}
	return nil
}

// checkLive pins the live index and the spare-top heap against the job
// table: live is the tracked live jobs, then the untracked ones, each in
// id order, and the heap holds exactly the live jobs with a spare attempt,
// each at its recorded position with its current top.
func checkLive(c *Cluster) error {
	i, inHeap := 0, 0
	for _, tracked := range []bool{true, false} {
		for _, jr := range c.jobs {
			if !jr.arrived || jr.completed || jr.cfg.Tracked != tracked {
				continue
			}
			if i >= len(c.live) || c.live[i] != jr {
				return fmt.Errorf("live[%d] is not job %d", i, jr.id)
			}
			i++
			top := int32(-1)
			if len(jr.spareMax.s) > 0 {
				top = jr.spareMax.s[0]
			}
			if len(jr.dupHeap.s) > 0 && (top < 0 || c.store.less(top, jr.dupHeap.s[0])) {
				top = jr.dupHeap.s[0]
			}
			if jr.spareTop != top {
				return fmt.Errorf("job %d spare top %d, want %d", jr.id, jr.spareTop, top)
			}
			if top < 0 {
				continue
			}
			inHeap++
			if p := int(jr.topPos); p < 0 || p >= len(c.spareTops) || c.spareTops[p] != jr {
				return fmt.Errorf("job %d not at its spare-top heap position %d", jr.id, p)
			}
		}
	}
	if i != len(c.live) || i < c.liveTracked {
		return fmt.Errorf("live holds %d jobs (%d tracked), want %d", len(c.live), c.liveTracked, i)
	}
	if inHeap != len(c.spareTops) {
		return fmt.Errorf("spare-top heap holds %d jobs, want %d", len(c.spareTops), inHeap)
	}
	return nil
}

// checkAgainstRef is the per-pass hook: it runs right after reclassify.
func checkAgainstRef(c *Cluster) {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("cluster: pass at t=%v diverged from the reference walks: ", c.now) +
			fmt.Sprintf(format, args...))
	}
	if c.dirty != nil {
		fail("dirty set not drained (job %d)", c.dirty.id)
	}
	if f := c.contentionFrac(); f != c.frac {
		fail("contention factor %v, clock says %v", c.frac, f)
	}
	if err := checkLive(c); err != nil {
		fail("%v", err)
	}
	for _, jr := range c.live {
		if err := checkRankPartition(c, jr); err != nil {
			fail("job %d: %v", jr.id, err)
		}
	}
	if n := refReclassify(c); n != 0 {
		fail("the full-walk reclassify moved %d attempts", n)
	}
	got, gotJob := c.youngestSpare()
	want, wantJob := refYoungestSpare(c)
	if got != want || gotJob != wantJob {
		fail("eviction pick slot %d, scan picks slot %d", got, want)
	}
}
