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
//     per C(p, a) table build (the simulator's sampling clock is not
//     queued; see Reserve). A Pop takes the root and leaves a hole there;
//     the next Push drops its item into the hole and sifts it down once,
//     instead of Pop re-heaping and Push sifting up again. Pop, Peek and
//     PeekKey first fill a pending hole from the last item.
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
	h []item[T]
	// hole marks h[0] vacant: a heap-regime Pop takes the root and leaves
	// its slot empty, so that a following Push can drop its item there and
	// sift it down once instead of Pop re-heaping and Push sifting up. Only
	// the heap regime ever has a hole.
	hole  bool
	seq   uint64
	onCal bool
	cal   calendar[T]
}

// promote moves every queued event from the heap into the calendar. Items
// keep their (at, seq) keys, so the pop sequence is unchanged. Its only
// caller, Push, has filled any root hole by then.
func (q *Queue[T]) promote() {
	q.cal.rebuild(q.h)
	clear(q.h)
	q.h = q.h[:0]
	q.onCal = true
}

// Push schedules v at the given time. Steady-state pushes (within the
// queue's high-water capacity) do not allocate.
//
//jockey:hotpath
func (q *Queue[T]) Push(at time.Duration, v T) {
	q.seq++
	it := item[T]{at: at, seq: q.seq, v: v}
	if q.onCal {
		q.cal.push(it)
		return
	}
	if q.hole {
		q.hole = false
		q.h[0] = it
		siftDown(q.h)
	} else {
		q.h = append(q.h, it)
		siftUp(q.h)
	}
	if len(q.h) >= calendarPromoteLen {
		q.promote()
	}
}

// Reserve takes the next insertion sequence number without queueing
// anything, exactly as a Push at this point would have. A caller that
// keeps one recurring event outside the queue (sim.Runner's sampling
// clock) orders it against queued events by comparing (at, seq) keys with
// PeekKey, so ties break as if the event had been pushed.
//
//jockey:hotpath
func (q *Queue[T]) Reserve() uint64 {
	q.seq++
	return q.seq
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
	q.fill()
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	it := q.h[0]
	q.h[0] = item[T]{} // drop references so the hole cannot retain T's pointers
	q.hole = true
	return it.at, it.v, true
}

// Peek returns the earliest event time without removing it.
//
//jockey:hotpath
func (q *Queue[T]) Peek() (at time.Duration, ok bool) {
	at, _, ok = q.PeekKey()
	return at, ok
}

// PeekKey returns the earliest event's full ordering key, its time and
// insertion sequence number, without removing it.
//
//jockey:hotpath
func (q *Queue[T]) PeekKey() (at time.Duration, seq uint64, ok bool) {
	if q.onCal {
		return q.cal.peek()
	}
	q.fill()
	if len(q.h) == 0 {
		return 0, 0, false
	}
	return q.h[0].at, q.h[0].seq, true
}

// Len returns the number of queued events.
//
//jockey:hotpath
func (q *Queue[T]) Len() int {
	if q.onCal {
		return q.cal.n
	}
	if q.hole {
		return len(q.h) - 1
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
	q.hole = false
	q.cal.reset()
	q.seq = 0
	q.onCal = false
}

// fill closes a pending root hole with the heap's last item, the re-heap
// a classic Pop does eagerly.
//
//jockey:hotpath
func (q *Queue[T]) fill() {
	if !q.hole {
		return
	}
	q.hole = false
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = item[T]{} // drop references so reused capacity cannot retain T's pointers
	q.h = q.h[:n]
	if n > 0 {
		siftDown(q.h)
	}
}

// siftUp moves h's last item up to its place. It lifts the item out and
// moves ancestors that order after it down into the vacancy on the way
// toward the root.
// Both regimes keep their heaps with siftUp and siftDown: the Queue's one
// heap and each calendar bucket.
//
//jockey:hotpath
func siftUp[T any](h []item[T]) {
	i := len(h) - 1
	it := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !lessItem(it, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// siftDown moves h's root item down to its place. It lifts the item out
// and moves the lesser child up into the vacancy on the way toward the
// leaves.
//
//jockey:hotpath
func siftDown[T any](h []item[T]) {
	n := len(h)
	i := 0
	it := h[0]
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && lessItem(h[right], h[least]) {
			least = right
		}
		if !lessItem(h[least], it) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = it
}
