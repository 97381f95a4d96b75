package eventq

import (
	"time"
)

// calendar is the large-regime storage behind Queue: a bucketed calendar
// queue (Brown 1988) whose buckets are small (time, seq) min-heaps.
//
// Events hash into buckets by ⌊at / width⌋ mod nbuckets; a pop scans forward
// from the current bucket and takes the earliest event inside the current
// bucket's "day" window. With the width tuned so buckets hold a handful of
// events, push and pop are O(1) amortized — the binary heap's O(log n)
// comparisons (and their cache misses) disappear at 10⁵–10⁶ queued events.
//
// Ordering is exactly the heap's: (at, seq) is a strict total order, every
// bucket is itself a min-heap on that order, and a pop always removes the
// global minimum (the earliest event of the first non-empty day). The pop
// sequence is therefore bit-identical to the reference heap for any push
// sequence, which the differential tests in eventq_ref_test.go pin at 10⁵
// events. Heap-ordered buckets also remove the classic calendar-queue
// degeneracy: a same-timestamp burst that lands in one bucket behaves like
// one binary heap instead of an O(n) scan per pop.
//
// The calendar never observes wall time and uses no randomness; its state
// is a pure function of the push/pop history.
type calendar[T any] struct {
	buckets [][]item[T]
	// scratch stages all items during a resize so bucket arrays can be
	// redistributed without allocating per item.
	scratch []item[T]
	width   int64 // bucket span in nanoseconds, > 0
	mask    int   // len(buckets) - 1 (len is a power of two)
	cur     int   // ring index of the bucket the pop frontier is in
	day     int64 // start of cur's current window (multiple of width)
	n       int
}

const (
	// calMinBuckets and calMaxBuckets bound the ring size; a resize targets
	// calOccupancy items per bucket, and the grow/shrink thresholds leave a
	// hysteresis band around that target so steady queues never thrash.
	calMinBuckets = 64
	calMaxBuckets = 1 << 20
	calOccupancy  = 4
	calGrowAt     = 8 // resize up when occupancy exceeds this
	calShrinkAt   = 1 // resize down when occupancy falls below this
)

// lessItem is the queue's total order: time, then insertion sequence.
//
//jockey:hotpath
func lessItem[T any](a, b item[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// floorDiv is ⌊a / w⌋ for w > 0 (truncated division rounds toward zero,
// which is wrong for negative times).
//
//jockey:hotpath
func floorDiv(a, w int64) int64 {
	q := a / w
	if a%w != 0 && a < 0 {
		q--
	}
	return q
}

//jockey:hotpath
func (c *calendar[T]) bucketFor(at time.Duration) int {
	return int(floorDiv(int64(at), c.width)) & c.mask
}

// push files an event into its bucket's heap, rewinding the pop frontier if
// the event lands before it (a discrete-event simulator schedules at or
// after "now", but the queue does not rely on that), and grows the ring
// when occupancy passes calGrowAt.
//
//jockey:hotpath
func (c *calendar[T]) push(it item[T]) {
	if int64(it.at) < c.day {
		c.day = floorDiv(int64(it.at), c.width) * c.width
		c.cur = c.bucketFor(it.at)
	}
	c.heapPush(c.bucketFor(it.at), it)
	c.n++
	if c.n > calGrowAt*len(c.buckets) && len(c.buckets) < calMaxBuckets {
		c.resize()
	}
}

// pop removes and returns the earliest event.
//
//jockey:hotpath
func (c *calendar[T]) pop() (item[T], bool) {
	var zero item[T]
	if c.n == 0 {
		return zero, false
	}
	// Scan at most one full year from the frontier; each bucket's heap head
	// is its minimum, so a head inside the current day window is the global
	// minimum (every earlier day was drained before the frontier advanced).
	for range c.buckets {
		b := c.buckets[c.cur]
		if len(b) > 0 && int64(b[0].at) < c.day+c.width {
			return c.take(), true
		}
		c.cur = (c.cur + 1) & c.mask
		c.day += c.width
	}
	// A whole empty year: jump the frontier straight to the earliest event
	// instead of iterating year by year across a sparse horizon.
	c.jumpToMin()
	return c.take(), true
}

// peek returns the earliest event's time and sequence number without
// removing it. It advances the frontier exactly like pop would, which
// affects only performance, never order.
//
//jockey:hotpath
func (c *calendar[T]) peek() (time.Duration, uint64, bool) {
	if c.n == 0 {
		return 0, 0, false
	}
	for range c.buckets {
		b := c.buckets[c.cur]
		if len(b) > 0 && int64(b[0].at) < c.day+c.width {
			return b[0].at, b[0].seq, true
		}
		c.cur = (c.cur + 1) & c.mask
		c.day += c.width
	}
	c.jumpToMin()
	head := c.buckets[c.cur][0]
	return head.at, head.seq, true
}

// take pops the head of the frontier bucket (which the caller has verified
// is the global minimum) and shrinks the ring when occupancy collapses.
//
//jockey:hotpath
func (c *calendar[T]) take() item[T] {
	it := c.heapPop(c.cur)
	c.n--
	if len(c.buckets) > calMinBuckets && c.n < len(c.buckets)*calShrinkAt && c.n > 0 {
		c.resize()
	}
	return it
}

// jumpToMin moves the frontier to the bucket holding the earliest event.
// O(nbuckets), amortized across the year of empty advances that precede it.
//
//jockey:hotpath
func (c *calendar[T]) jumpToMin() {
	best := -1
	for i := range c.buckets {
		b := c.buckets[i]
		if len(b) == 0 {
			continue
		}
		if best < 0 || lessItem(b[0], c.buckets[best][0]) {
			best = i
		}
	}
	c.cur = best
	c.day = floorDiv(int64(c.buckets[best][0].at), c.width) * c.width
}

// heapPush sifts an event into bucket bi's min-heap.
//
//jockey:hotpath
func (c *calendar[T]) heapPush(bi int, it item[T]) {
	c.buckets[bi] = append(c.buckets[bi], it)
	siftUp(c.buckets[bi])
}

// heapPop removes bucket bi's minimum.
//
//jockey:hotpath
func (c *calendar[T]) heapPop(bi int) item[T] {
	b := c.buckets[bi]
	it := b[0]
	n := len(b) - 1
	b[0] = b[n]
	b[n] = item[T]{} // drop references so reused capacity cannot retain T's pointers
	b = b[:n]
	c.buckets[bi] = b
	if n > 0 {
		siftDown(b)
	}
	return it
}

// resize re-tunes the ring to ~calOccupancy events per bucket and re-derives
// the bucket width from the current event-time span. All items are staged
// through the reused scratch buffer, so steady-state resizes allocate only
// when the ring or a bucket grows past its high-water capacity. The choice
// of geometry affects performance only — order is decided per pop — so any
// deterministic width heuristic preserves bit-identity.
func (c *calendar[T]) resize() {
	c.scratch = c.scratch[:0]
	for i := range c.buckets {
		c.scratch = append(c.scratch, c.buckets[i]...)
		clear(c.buckets[i])
		c.buckets[i] = c.buckets[i][:0]
	}
	c.rebuild(c.scratch)
	clear(c.scratch) // drop duplicated references held by T
	c.scratch = c.scratch[:0]
}

// rebuild sizes the ring for the given items and redistributes them. Shared
// by resize and the heap-mode promotion in Queue.
func (c *calendar[T]) rebuild(items []item[T]) {
	n := len(items)
	nb := calMinBuckets
	for nb < calMaxBuckets && nb*calOccupancy < n {
		nb *= 2
	}
	if cap(c.buckets) >= nb {
		c.buckets = c.buckets[:nb]
		for i := range c.buckets {
			if c.buckets[i] == nil {
				continue
			}
			clear(c.buckets[i])
			c.buckets[i] = c.buckets[i][:0]
		}
	} else {
		c.buckets = make([][]item[T], nb)
	}
	c.mask = nb - 1
	minAt := int64(0)
	maxAt := int64(0)
	if n > 0 {
		minAt, maxAt = int64(items[0].at), int64(items[0].at)
		for _, it := range items[1:] {
			if int64(it.at) < minAt {
				minAt = int64(it.at)
			}
			if int64(it.at) > maxAt {
				maxAt = int64(it.at)
			}
		}
	}
	// One year (nb × width) spans the live events with ~calOccupancy per
	// bucket; +1 keeps the width positive when all events share one time.
	c.width = (maxAt-minAt)/int64(nb) + 1
	// A pop scan adds width per bucket for up to a year; keep the whole
	// year's span far from int64 overflow.
	if limit := int64(1) << 59 / int64(nb); c.width > limit {
		c.width = limit
	}
	c.day = floorDiv(minAt, c.width) * c.width
	c.cur = int(floorDiv(minAt, c.width)) & c.mask
	c.n = 0
	for _, it := range items {
		c.heapPush(c.bucketFor(it.at), it)
		c.n++
	}
}

// reset empties the calendar in place, keeping every bucket's capacity.
func (c *calendar[T]) reset() {
	for i := range c.buckets {
		clear(c.buckets[i])
		c.buckets[i] = c.buckets[i][:0]
	}
	c.n = 0
	c.cur = 0
	c.day = 0
}
