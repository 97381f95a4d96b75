package cluster

import (
	"time"
)

// taskStore holds every live task attempt in the cluster as struct-of-arrays:
// parallel flat slices indexed by a slot id, with a free list recycling slots
// as attempts end. The layout replaces the per-attempt *runningTask records
// of earlier engines for two reasons:
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
	// nextJ/prevJ link the slot into its job's intrusive doubly-linked list
	// of running attempts (jobRun.prim), kept in less order.
	nextJ []int32
	prevJ []int32
	// nextM/prevM link the slot into its machine's intrusive doubly-linked
	// task list, so killing a machine touches only that machine's tasks.
	nextM []int32
	prevM []int32

	free []int32
}

const (
	flagGuar      uint8 = 1 << iota // currently charged to guaranteed tokens
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
	st.nextJ = append(st.nextJ, -1)
	st.prevJ = append(st.prevJ, -1)
	st.nextM = append(st.nextM, -1)
	st.prevM = append(st.prevM, -1)
	return s
}

// release returns a slot to the free list. The slot must already be detached
// from its job and machine lists.
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
	st.nextJ = st.nextJ[:0]
	st.prevJ = st.prevJ[:0]
	st.nextM = st.nextM[:0]
	st.prevM = st.prevM[:0]
	st.free = st.free[:0]
}

// less totally orders attempts by start time, then stage/task position —
// the same order the pointer-based engine's cmpTask used. Within one job the
// order has no ties (stage/task is unique); across jobs the scheduler breaks
// ties by job id (Cluster.topAbove, Cluster.victimLess).
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

// slotList heads an intrusive doubly-linked list of store slots, linked
// through taskStore.nextJ/prevJ; -1 marks an empty end.
type slotList struct {
	head, tail int32
}

// link inserts slot s into l, keeping l in less order. Every attempt is
// dispatched at the current clock, so s sorts after every attempt that
// started earlier: the walk back from the tail passes only same-time
// attempts that sort after it, and is usually empty.
//
//jockey:hotpath
func (st *taskStore) link(l *slotList, s int32) {
	prev := l.tail
	for prev >= 0 && st.less(s, prev) {
		prev = st.prevJ[prev]
	}
	st.prevJ[s] = prev
	if prev >= 0 {
		st.nextJ[s] = st.nextJ[prev]
		st.nextJ[prev] = s
	} else {
		st.nextJ[s] = l.head
		l.head = s
	}
	if next := st.nextJ[s]; next >= 0 {
		st.prevJ[next] = s
	} else {
		l.tail = s
	}
}

// unlink removes slot s from l in O(1), leaving s's own links readable.
//
//jockey:hotpath
func (st *taskStore) unlink(l *slotList, s int32) {
	prev, next := st.prevJ[s], st.nextJ[s]
	if prev >= 0 {
		st.nextJ[prev] = next
	} else {
		l.head = next
	}
	if next >= 0 {
		st.prevJ[next] = prev
	} else {
		l.tail = prev
	}
}
