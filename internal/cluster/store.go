package cluster

import (
	"time"
)

// taskStore holds every live task attempt (primary or speculative duplicate)
// in the cluster as struct-of-arrays: parallel flat slices indexed by a slot
// id, with a free list recycling slots as attempts end. The layout replaces
// the per-attempt *runningTask records of earlier engines for two reasons:
//
//   - the scheduler's hot loops (reclassification, eviction choice, machine
//     kills) walk dense int32/int64 arrays instead of chasing heap pointers,
//     which is what makes 10⁵–10⁶ concurrent attempts affordable;
//   - the store contains no pointers at all, so a cosmos-scale replay adds
//     nothing to the garbage collector's scan set.
//
// Slot ids are engine-internal and never observable: recycling order affects
// memory layout only, never replay output.
type taskStore struct {
	job       []int32
	stage     []int32
	task      []int32
	attempt   []int32
	machine   []int32
	startedAt []time.Duration // dispatch time
	execStart []time.Duration // after init delay
	flags     []uint8
	// heapPos is the slot's index in the one job heap it belongs to
	// (guarHeap, spareMax, or dupHeap — membership is exclusive); minPos is
	// its index in the job's spareMin heap (spare primaries only). The back
	// pointers make removal from the middle of a heap O(log n).
	heapPos []int32
	minPos  []int32
	// nextM/prevM link the slot into its machine's intrusive doubly-linked
	// task list, so killing a machine touches only that machine's tasks.
	nextM []int32
	prevM []int32

	free []int32
}

const (
	flagDup       uint8 = 1 << iota // speculative duplicate (always spare-class)
	flagGuar                        // currently charged to guaranteed tokens
	flagSpawnGuar                   // token class at dispatch, for accounting
)

// alloc hands out a slot id, recycling from the free list when possible. The
// caller overwrites every field. Steady state (within the high-water number
// of concurrent attempts) does not allocate.
//
//jockey:hotpath
func (st *taskStore) alloc() int32 {
	if n := len(st.free); n > 0 {
		s := st.free[n-1]
		st.free = st.free[:n-1]
		return s
	}
	s := int32(len(st.job))
	st.job = append(st.job, 0)
	st.stage = append(st.stage, 0)
	st.task = append(st.task, 0)
	st.attempt = append(st.attempt, 0)
	st.machine = append(st.machine, 0)
	st.startedAt = append(st.startedAt, 0)
	st.execStart = append(st.execStart, 0)
	st.flags = append(st.flags, 0)
	st.heapPos = append(st.heapPos, -1)
	st.minPos = append(st.minPos, -1)
	st.nextM = append(st.nextM, -1)
	st.prevM = append(st.prevM, -1)
	return s
}

// release returns a slot to the free list. The slot must already be detached
// from its heaps and machine list.
//
//jockey:hotpath
func (st *taskStore) release(s int32) {
	st.free = append(st.free, s)
}

// reset empties the store in place, keeping every array's capacity.
func (st *taskStore) reset() {
	st.job = st.job[:0]
	st.stage = st.stage[:0]
	st.task = st.task[:0]
	st.attempt = st.attempt[:0]
	st.machine = st.machine[:0]
	st.startedAt = st.startedAt[:0]
	st.execStart = st.execStart[:0]
	st.flags = st.flags[:0]
	st.heapPos = st.heapPos[:0]
	st.minPos = st.minPos[:0]
	st.nextM = st.nextM[:0]
	st.prevM = st.prevM[:0]
	st.free = st.free[:0]
}

// less totally orders attempts by start time, then stage/task position —
// the same order the pointer-based engine's cmpTask used. Within one job the
// order has no ties (a primary and its duplicate cannot share a start time,
// and stage/task is unique); across jobs the scheduler breaks ties by job id
// (before, Cluster.topAbove).
//
//jockey:hotpath
func (st *taskStore) less(a, b int32) bool {
	if st.startedAt[a] != st.startedAt[b] {
		return st.startedAt[a] < st.startedAt[b]
	}
	if st.stage[a] != st.stage[b] {
		return st.stage[a] < st.stage[b]
	}
	return st.task[a] < st.task[b]
}

// before extends less across jobs: attempts less leaves tied (the same
// start time, stage and task in different jobs) order by job id, so a pick
// over several jobs does not depend on the order the jobs are walked in.
//
//jockey:hotpath
func (st *taskStore) before(a, b int32) bool {
	if st.less(a, b) {
		return true
	}
	return !st.less(b, a) && st.job[a] < st.job[b]
}

// slotHeap is a binary heap of store slot ids. Max-heaps (guarHeap,
// spareMax, dupHeap) track positions in taskStore.heapPos; the one min-heap
// (spareMin) tracks positions in taskStore.minPos, so a spare primary can
// sit in both a max- and a min-heap at once.
type slotHeap struct {
	s []int32
}

//jockey:hotpath
func (st *taskStore) maxSwap(h *slotHeap, i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	st.heapPos[h.s[i]] = int32(i)
	st.heapPos[h.s[j]] = int32(j)
}

//jockey:hotpath
func (st *taskStore) maxUp(h *slotHeap, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !st.less(h.s[parent], h.s[i]) {
			return
		}
		st.maxSwap(h, i, parent)
		i = parent
	}
}

//jockey:hotpath
func (st *taskStore) maxDown(h *slotHeap, i int) bool {
	moved := false
	n := len(h.s)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		big := left
		if right := left + 1; right < n && st.less(h.s[left], h.s[right]) {
			big = right
		}
		if !st.less(h.s[i], h.s[big]) {
			return moved
		}
		st.maxSwap(h, i, big)
		i = big
		moved = true
	}
}

//jockey:hotpath
func (st *taskStore) maxPush(h *slotHeap, s int32) {
	h.s = append(h.s, s)
	i := len(h.s) - 1
	st.heapPos[s] = int32(i)
	st.maxUp(h, i)
}

// maxRemove deletes slot s from anywhere in the heap via its back pointer.
//
//jockey:hotpath
func (st *taskStore) maxRemove(h *slotHeap, s int32) {
	i := int(st.heapPos[s])
	n := len(h.s) - 1
	last := h.s[n]
	h.s = h.s[:n]
	if i == n {
		return
	}
	h.s[i] = last
	st.heapPos[last] = int32(i)
	if !st.maxDown(h, i) {
		st.maxUp(h, i)
	}
}

//jockey:hotpath
func (st *taskStore) minSwap(h *slotHeap, i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	st.minPos[h.s[i]] = int32(i)
	st.minPos[h.s[j]] = int32(j)
}

//jockey:hotpath
func (st *taskStore) minUp(h *slotHeap, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !st.less(h.s[i], h.s[parent]) {
			return
		}
		st.minSwap(h, i, parent)
		i = parent
	}
}

//jockey:hotpath
func (st *taskStore) minDown(h *slotHeap, i int) bool {
	moved := false
	n := len(h.s)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		small := left
		if right := left + 1; right < n && st.less(h.s[right], h.s[left]) {
			small = right
		}
		if !st.less(h.s[small], h.s[i]) {
			return moved
		}
		st.minSwap(h, i, small)
		i = small
		moved = true
	}
}

//jockey:hotpath
func (st *taskStore) minPush(h *slotHeap, s int32) {
	h.s = append(h.s, s)
	i := len(h.s) - 1
	st.minPos[s] = int32(i)
	st.minUp(h, i)
}

//jockey:hotpath
func (st *taskStore) minRemove(h *slotHeap, s int32) {
	i := int(st.minPos[s])
	n := len(h.s) - 1
	last := h.s[n]
	h.s = h.s[:n]
	if i == n {
		return
	}
	h.s[i] = last
	st.minPos[last] = int32(i)
	if !st.minDown(h, i) {
		st.minUp(h, i)
	}
}
