package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// This file keeps the reference check of the scheduling pass. The
// production pass repairs only the jobs in its dirty set, keeps each job's
// attempts in start-ordered lists with the guaranteed class a prefix, and
// reads the eviction pick off the spare-top heap; init installs
// checkAgainstRef as the per-pass hook (checkPass), so every scheduling pass
// of every test in this package diffs that incremental state against a
// from-scratch derivation that trusts none of it. The live attempts are
// gathered from the machine task lists, the one index the class structures
// do not maintain, and sorted by taskStore.less; from that:
//
//   - checkRankPartition requires each live job's guaranteed flags on
//     exactly its first min(effective guarantee, running) attempts, and
//     its list to hold exactly those attempts, in order;
//   - checkLive pins the live-job count, the ready index, the owed sets
//     and each job's spare top and place in the spare-top heap;
//   - refYoungestSpare, a scan over the gathered spare attempts with jobs
//     in id order, must pick the spare-top heap's root.
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

// refSlots is the gathering buffer, reused across passes so that the hook
// adds no allocations to this package's steady-state allocation tests.
var refSlots []int32

// refLiveAttempts gathers every live attempt from the machine task lists,
// sorted by job, then taskStore.less.
func refLiveAttempts(c *Cluster) []int32 {
	st := &c.store
	all := refSlots[:0]
	for _, head := range c.mHead {
		for s := head; s >= 0; s = st.nextM[s] {
			all = append(all, s)
		}
	}
	slices.SortFunc(all, func(a, b int32) int {
		if d := cmp.Compare(st.job[a], st.job[b]); d != 0 {
			return d
		}
		if st.less(a, b) {
			return -1
		}
		if st.less(b, a) {
			return 1
		}
		return 0
	})
	refSlots = all
	return all
}

// refJobAttempts splits the gathered attempts of job id, which lead all,
// from the rest.
func refJobAttempts(c *Cluster, all []int32, id int) (mine, rest []int32) {
	n := 0
	for n < len(all) && c.store.job[all[n]] == int32(id) {
		n++
	}
	return all[:n], all[n:]
}

// refTarget is the size of the job's guaranteed class in the rank partition.
func refTarget(c *Cluster, jr *jobRun, prim []int32) int {
	return min(refEffectiveGuarantee(c, jr), len(prim))
}

// refSpareTop is the job's latest-started spare attempt in the rank
// partition (-1 when it has none).
func refSpareTop(c *Cluster, jr *jobRun, prim []int32) int32 {
	if refTarget(c, jr, prim) < len(prim) {
		return prim[len(prim)-1]
	}
	return -1
}

// checkList requires list l to hold exactly want, in order, with
// consistent back links.
func checkList(st *taskStore, l slotList, want []int32) error {
	prev := int32(-1)
	s := l.head
	for i, w := range want {
		if s != w {
			return fmt.Errorf("list position %d holds slot %d, want %d", i, s, w)
		}
		if st.prevJ[s] != prev {
			return fmt.Errorf("list slot %d links back to %d, want %d", s, st.prevJ[s], prev)
		}
		prev, s = s, st.nextJ[s]
	}
	if s >= 0 || l.tail != prev {
		return fmt.Errorf("list runs past its %d attempts (next %d, tail %d, want %d)", len(want), s, l.tail, prev)
	}
	return nil
}

// checkRankPartition requires the job's guaranteed flags, counts, boundary
// and list to match the rank partition of its gathered attempts: the first
// min(effective guarantee, running) attempts guaranteed, the rest spare.
func checkRankPartition(c *Cluster, jr *jobRun, prim []int32) error {
	st := &c.store
	target := refTarget(c, jr, prim)
	if jr.liveRunning != len(prim) || jr.guarCount != target {
		return fmt.Errorf("liveRunning %d, guarCount %d; %d attempts run, rank partition guarantees %d",
			jr.liveRunning, jr.guarCount, len(prim), target)
	}
	for i, s := range prim {
		if guar := st.flags[s]&flagGuar != 0; guar != (i < target) {
			return fmt.Errorf("slot %d of rank %d has flags %b, want guaranteed %t", s, i, st.flags[s], i < target)
		}
	}
	last := int32(-1)
	if target > 0 {
		last = prim[target-1]
	}
	if jr.guarLast != last {
		return fmt.Errorf("guaranteed boundary at slot %d, want %d", jr.guarLast, last)
	}
	return checkList(st, jr.prim, prim)
}

// checkLive pins the job indexes against the job table and the gathered
// attempts: ready is the tracked live jobs with ready work, then the
// untracked ones, each in id order, with room for every live job; the live
// count is the number of live jobs; exactly the live jobs hold a task set;
// only live jobs run attempts; and the heap holds exactly the jobs with a
// spare attempt, each at its recorded position with its from-scratch spare
// top.
func checkLive(c *Cluster, all []int32) error {
	i := 0
	for _, tracked := range []bool{true, false} {
		for _, jr := range c.jobs {
			if !jr.arrived || jr.completed || jr.cfg.Tracked != tracked || jr.taskSet == nil || jr.deps.Len() == 0 {
				continue
			}
			if i >= len(c.ready) || c.ready[i] != jr {
				return fmt.Errorf("ready[%d] is not job %d", i, jr.id)
			}
			i++
		}
	}
	if i != len(c.ready) {
		return fmt.Errorf("ready holds %d jobs, want %d", len(c.ready), i)
	}
	nlive := 0
	for _, jr := range c.jobs {
		live := jr.arrived && !jr.completed
		if live {
			nlive++
		}
		if (jr.taskSet != nil) != live {
			return fmt.Errorf("job %d (arrived %t, completed %t) holds a task set: %t",
				jr.id, jr.arrived, jr.completed, jr.taskSet != nil)
		}
		if ready := live && jr.deps.Len() > 0; jr.inReady != ready {
			return fmt.Errorf("job %d (arrived %t, completed %t) has ready work %t and ready flag %t",
				jr.id, jr.arrived, jr.completed, ready, jr.inReady)
		}
	}
	inHeap := 0
	for _, jr := range c.jobs {
		var prim []int32
		prim, all = refJobAttempts(c, all, jr.id)
		if (!jr.arrived || jr.completed) && len(prim) > 0 {
			return fmt.Errorf("job %d is not live but runs %d attempts", jr.id, len(prim))
		}
		top := refSpareTop(c, jr, prim)
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
	if len(all) > 0 {
		return fmt.Errorf("slot %d runs for unknown job %d", all[0], c.store.job[all[0]])
	}
	if inHeap != len(c.spareTops) {
		return fmt.Errorf("spare-top heap holds %d jobs, want %d", len(c.spareTops), inHeap)
	}
	if c.live != nlive || cap(c.ready) < nlive {
		return fmt.Errorf("live count %d and ready room %d, want %d live jobs", c.live, cap(c.ready), nlive)
	}
	return checkOwed(c)
}

// checkOwed requires the owed sets, walked as dispatchGuaranteed walks
// them, to yield exactly the ready jobs whose guaranteed class is smaller
// than their effective guarantee: the tracked ones from owedTracked, the
// untracked ones from owedUntracked, each in id order.
func checkOwed(c *Cluster) error {
	for _, ix := range []struct {
		name    string
		set     *bitset
		tracked bool
	}{{"owedTracked", &c.owedTracked, true}, {"owedUntracked", &c.owedUntracked, false}} {
		id := ix.set.next(0)
		for _, jr := range c.jobs {
			ready := jr.arrived && !jr.completed && jr.deps.Len() > 0
			if !ready || jr.cfg.Tracked != ix.tracked || jr.guarCount >= refEffectiveGuarantee(c, jr) {
				continue
			}
			if id != jr.id {
				return fmt.Errorf("%s yields job %d where owed job %d (%d of %d guaranteed) is due",
					ix.name, id, jr.id, jr.guarCount, refEffectiveGuarantee(c, jr))
			}
			id = ix.set.next(id + 1)
		}
		if id >= 0 {
			return fmt.Errorf("%s holds job %d, which is not owed", ix.name, id)
		}
	}
	return nil
}

// refYoungestSpare is the eviction scan: over the live jobs in id order,
// each contributing its from-scratch spare top, with a strict less so the
// first job keeps a tie.
func refYoungestSpare(c *Cluster, all []int32) (int32, *jobRun) {
	best := int32(-1)
	var bestJob *jobRun
	for _, jr := range c.jobs {
		var prim []int32
		prim, all = refJobAttempts(c, all, jr.id)
		if cand := refSpareTop(c, jr, prim); cand >= 0 && (best < 0 || c.store.less(best, cand)) {
			best, bestJob = cand, jr
		}
	}
	return best, bestJob
}

// checkAgainstRef is the per-pass hook: it runs right after reclassify.
func checkAgainstRef(c *Cluster) {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("cluster: pass at t=%v diverged from the reference check: ", c.now) +
			fmt.Sprintf(format, args...))
	}
	if c.dirty != nil {
		fail("dirty set not drained (job %d)", c.dirty.id)
	}
	if f := c.contentionFrac(); f != c.frac {
		fail("contention factor %v, clock says %v", c.frac, f)
	}
	all := refLiveAttempts(c)
	if err := checkLive(c, all); err != nil {
		fail("%v", err)
	}
	rest := all
	for _, jr := range c.jobs {
		var prim []int32
		prim, rest = refJobAttempts(c, rest, jr.id)
		if err := checkRankPartition(c, jr, prim); err != nil {
			fail("job %d: %v", jr.id, err)
		}
	}
	got, gotJob := c.youngestSpare()
	want, wantJob := refYoungestSpare(c, all)
	if got != want || gotJob != wantJob {
		fail("eviction pick slot %d, scan picks slot %d", got, want)
	}
}
