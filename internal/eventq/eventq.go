// Package eventq provides the deterministic discrete-event priority queue
// shared by the offline job simulator (internal/sim) and the shared-cluster
// simulator (internal/cluster).
//
// Events are ordered by time; ties are broken by insertion sequence so that
// simulations are reproducible regardless of heap internals. Because
// (time, seq) is a strict total order, the pop sequence is a pure function
// of the push sequence, so one binary heap serves every queue size, from a
// C(p, a) build's few dozen running tasks to a Cosmos-scale replay's 10⁵
// queued events.
//
// The heap is hand-rolled. It replaced a container/heap adapter: the stdlib
// interface moves every element through `any`, which boxes one allocation
// per Push. This matters because the queue sits on the simulator's
// innermost loop: one Push+Pop per task attempt, millions per C(p, a)
// table build (the simulator's sampling clock is not queued; see Reserve).
// A Pop takes the root and leaves a hole there; the next Push drops its
// item into the hole and sifts it down once, instead of Pop re-heaping and
// Push sifting up again. Pop, Peek and PeekKey first fill a pending hole
// from the last item. The randomized differential tests in
// eventq_ref_test.go pin the pop sequence to the old adapter's, including a
// 10⁵-event run.
package eventq

import (
	"time"
)

type item[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// Queue is a time-ordered event queue. The zero value is ready to use.
type Queue[T any] struct {
	h []item[T]
	// hole marks h[0] vacant: a Pop takes the root and leaves its slot
	// empty, so that a following Push can drop its item there and sift it
	// down once instead of Pop re-heaping and Push sifting up.
	hole bool
	seq  uint64
}

// Push schedules v at the given time. Steady-state pushes (within the
// queue's high-water capacity) do not allocate.
//
//jockey:hotpath
func (q *Queue[T]) Push(at time.Duration, v T) {
	q.seq++
	it := item[T]{at: at, seq: q.seq, v: v}
	if q.hole {
		q.hole = false
		q.h[0] = it
		siftDown(q.h)
	} else {
		q.h = append(q.h, it)
		siftUp(q.h)
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
	q.seq = 0
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

// lessItem is the queue's total order: time, then insertion sequence.
//
//jockey:hotpath
func lessItem[T any](a, b item[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves h's last item up to its place. It lifts the item out and
// moves ancestors that order after it down into the vacancy on the way
// toward the root.
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
