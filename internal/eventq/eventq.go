// Package eventq provides the deterministic discrete-event priority queue
// shared by the offline job simulator (internal/sim) and the shared-cluster
// simulator (internal/cluster).
//
// Events are ordered by time; ties are broken by insertion sequence so that
// simulations are reproducible regardless of heap internals.
//
// The queue has two storage regimes behind one interface:
//
//   - a hand-rolled binary heap (the reference implementation), used below
//     calendarPromoteLen. It replaced a container/heap adapter: the stdlib
//     interface moves every element through `any`, which boxes one
//     allocation per Push. This matters because the queue sits on the
//     simulator's innermost loop: one Push+Pop per task attempt, millions
//     per C(p, a) table build.
//   - a bucketed calendar queue (calendar.go) with heap-ordered buckets,
//     promoted to automatically when the queue grows past
//     calendarPromoteLen — O(1) amortized push/pop at the event densities a
//     Cosmos-scale replay produces (10⁵–10⁶ queued events), where the
//     heap's log n cache-missing comparisons dominate.
//
// Because (time, seq) is a strict total order, the pop sequence is fully
// determined by the push sequence and is identical across the heap, the
// calendar, and the old container/heap adapter (pinned by the randomized
// differential tests in eventq_ref_test.go, including a 10⁵-event run).
// Which regime serves an operation is a pure function of the queue length
// since the last Reset — the heap until Len first reaches
// calendarPromoteLen, the calendar from then on — so replays are
// bit-identical whether or not promotion happens.
package eventq

import (
	"time"
)

type item[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// calendarPromoteLen is the promotion threshold: a queue starts on the
// reference heap and moves to the calendar when Len reaches it. Promotion
// never changes the pop sequence; small queues keep the heap's lower
// constant overhead. Replays sized like the paper's Table 2 experiments
// stay well below it (the heap is faster there); a 10k-machine replay
// crosses it during the first arrival burst. It is a variable only so that
// tests can pin either regime (export_test.go); nothing else assigns it.
var calendarPromoteLen = 4096

// Queue is a time-ordered event queue. The zero value is ready to use.
type Queue[T any] struct {
	h     []item[T]
	seq   uint64
	onCal bool
	cal   calendar[T]
}

// promote moves every queued event from the heap into the calendar. Items
// keep their (at, seq) keys, so the pop sequence is unchanged.
func (q *Queue[T]) promote() {
	q.cal.rebuild(q.h)
	clear(q.h)
	q.h = q.h[:0]
	q.onCal = true
}

// less orders the heap by (time, insertion sequence). seq values are unique,
// so this is a strict total order and pop order does not depend on sift
// internals.
//
//jockey:hotpath
func (q *Queue[T]) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

// Push schedules v at the given time. Steady-state pushes (within the
// queue's high-water capacity) do not allocate.
//
//jockey:hotpath
func (q *Queue[T]) Push(at time.Duration, v T) {
	q.seq++
	if q.onCal {
		q.cal.push(item[T]{at: at, seq: q.seq, v: v})
		return
	}
	q.h = append(q.h, item[T]{at: at, seq: q.seq, v: v})
	q.up(len(q.h) - 1)
	if len(q.h) >= calendarPromoteLen {
		q.promote()
	}
}

// Pop removes and returns the earliest event. ok is false if the queue is
// empty. Pop never allocates.
//
//jockey:hotpath
func (q *Queue[T]) Pop() (at time.Duration, v T, ok bool) {
	if q.onCal {
		it, ok := q.cal.pop()
		return it.at, it.v, ok
	}
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	it := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = item[T]{} // drop references so reused capacity cannot retain T's pointers
	q.h = q.h[:n]
	if n > 1 {
		q.down(0)
	}
	return it.at, it.v, true
}

// Peek returns the earliest event time without removing it.
//
//jockey:hotpath
func (q *Queue[T]) Peek() (at time.Duration, ok bool) {
	if q.onCal {
		return q.cal.peek()
	}
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// Len returns the number of queued events.
//
//jockey:hotpath
func (q *Queue[T]) Len() int {
	if q.onCal {
		return q.cal.n
	}
	return len(q.h)
}

// Reset empties the queue in place, keeping the backing array so a reused
// queue (sim.Runner runs thousands of simulations on one queue) reaches its
// high-water capacity once and never allocates again. The insertion
// sequence restarts at zero, so a Reset queue behaves bit-identically to a
// fresh one.
//
//jockey:hotpath
func (q *Queue[T]) Reset() {
	clear(q.h) // drop references held by T
	q.h = q.h[:0]
	q.cal.reset()
	q.seq = 0
	q.onCal = false
}

// up restores the heap property from index i toward the root.
//
//jockey:hotpath
func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// down restores the heap property from index i toward the leaves.
//
//jockey:hotpath
func (q *Queue[T]) down(i int) {
	n := len(q.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
