package eventq

// Differential tests pinning the calendar queue to the reference heap: with
// (time, seq) a strict total order, every workload must produce the same pop
// sequence with the heap pinned, the calendar pinned, and the default
// threshold (which promotes mid-run). The workloads target the calendar's
// weak spots: bucket-width re-estimation under random times, same-timestamp
// bursts that pile one bucket high (seq ordering inside a bucket), and
// monotone time advance (steady-state bucket rotation with jumpToMin skips
// over sparse regions).

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// drive applies an identical op sequence to a regime-pinned queue and the
// reference heap, failing at the first divergence. gen(i) returns the next
// op: push at time `at` (do=0) or pop (do=1).
func drive(t *testing.T, regime string, ops int, gen func(i int, qLen int) (do int, at time.Duration)) {
	t.Helper()
	PinRegime(t, regime)
	var q Queue[int]
	var ref refQueue
	for i := 0; i < ops; i++ {
		do, at := gen(i, q.Len())
		if do == 0 {
			q.Push(at, i)
			ref.Push(at, i)
			continue
		}
		at, v, ok := q.Pop()
		rat, rv, rok := ref.Pop()
		if at != rat || v != rv || ok != rok {
			t.Fatalf("%s regime diverged at op %d: got (%v, %d, %v), reference (%v, %d, %v)",
				regime, i, at, v, ok, rat, rv, rok)
		}
	}
	for {
		at, v, ok := q.Pop()
		rat, rv, rok := ref.Pop()
		if at != rat || v != rv || ok != rok {
			t.Fatalf("%s regime diverged during drain: got (%v, %d, %v), reference (%v, %d, %v)",
				regime, at, v, ok, rat, rv, rok)
		}
		if !ok {
			return
		}
	}
}

// TestCalendarDifferentialLarge grows the queue to ~10⁵ events and drains
// it, with randomized times spanning wide and narrow ranges — the scale the
// calendar exists for, far past the default promotion threshold. Every
// differential runs under all of Regimes; the default crosses the threshold
// mid-workload at these sizes, so promotion itself is exercised. The shards
// run sequentially because a pinned regime is shared by the whole package.
func TestCalendarDifferentialLarge(t *testing.T) {
	const n = 100_000
	for shard := 0; shard < 4; shard++ {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			seed := stats.DeriveSeed(2026, "calendar-diff-large", fmt.Sprint(shard))
			for _, regime := range Regimes {
				rng := stats.NewRNG(seed)
				// Grow phase: 3 pushes per pop until n events are queued,
				// then drain. Time range varies per shard to shift the
				// calendar's estimated bucket width.
				span := []int64{1 << 10, 1 << 20, 1 << 30, 1 << 34}[shard]
				pushed := 0
				drive(t, regime, 4*n/3, func(i, qLen int) (int, time.Duration) {
					if (rng.IntN(4) != 0 || qLen == 0) && pushed < n {
						pushed++
						return 0, time.Duration(rng.Int64N(span))
					}
					return 1, 0
				})
			}
		})
	}
}

// TestCalendarDifferentialBursts is the adversarial tie workload: long runs
// of pushes sharing one timestamp (so a single calendar bucket holds
// thousands of items whose order is decided purely by seq), interleaved
// with pops that straddle burst boundaries.
func TestCalendarDifferentialBursts(t *testing.T) {
	seed := stats.DeriveSeed(2026, "calendar-diff-bursts")
	for _, regime := range Regimes {
		rng := stats.NewRNG(seed)
		at := time.Duration(0)
		left := 0
		drive(t, regime, 60_000, func(i, qLen int) (int, time.Duration) {
			if left == 0 {
				// Next burst: a new shared timestamp — sometimes moving
				// backwards, sometimes far forward — and a burst length up
				// to 4096 (one bucket's worth of pure ties).
				at += time.Duration(rng.Int64N(1<<22) - 1<<20)
				if at < 0 {
					at = 0
				}
				left = 1 + rng.IntN(4096)
			}
			if rng.IntN(5) == 0 && qLen > 0 {
				return 1, 0
			}
			left--
			return 0, at
		})
	}
}

// TestCalendarDifferentialMonotone is the steady-state shape the simulator
// produces: the popped time never decreases and pushes always land at or
// after the current front, so the calendar rotates forward bucket by bucket
// (the jumpToMin fast-forward path runs constantly).
func TestCalendarDifferentialMonotone(t *testing.T) {
	seed := stats.DeriveSeed(2026, "calendar-diff-monotone")
	for _, regime := range Regimes {
		rng := stats.NewRNG(seed)
		now := time.Duration(0)
		drive(t, regime, 80_000, func(i, qLen int) (int, time.Duration) {
			if qLen >= 8192 || (qLen > 0 && rng.IntN(2) == 0) {
				return 1, 0
			}
			// Event horizons cluster near now with a sparse far tail, so
			// some buckets stay empty for many rotations.
			gap := time.Duration(rng.Int64N(int64(time.Second)))
			if rng.IntN(16) == 0 {
				gap = time.Duration(rng.Int64N(int64(time.Hour)))
			}
			now += gap / 256
			return 0, now + gap
		})
	}
}

// TestForcedCalendarMatchesReference re-runs the randomized container/heap
// differential with the calendar pinned on, so the whole workload — however
// small — is served by the bucketed structure.
func TestForcedCalendarMatchesReference(t *testing.T) {
	PinRegime(t, "calendar")
	f := func(seed uint64, opsRaw uint16) bool {
		rng := stats.NewRNG(seed)
		ops := 50 + int(opsRaw)%2000
		var q Queue[int]
		var ref refQueue
		for i := 0; i < ops; i++ {
			if rng.IntN(3) != 0 || q.Len() == 0 {
				at := time.Duration(rng.IntN(64)) * time.Millisecond
				q.Push(at, i)
				ref.Push(at, i)
				continue
			}
			at, v, ok := q.Pop()
			rat, rv, rok := ref.Pop()
			if at != rat || v != rv || ok != rok {
				return false
			}
		}
		for {
			at, v, ok := q.Pop()
			rat, rv, rok := ref.Pop()
			if at != rat || v != rv || ok != rok {
				return false
			}
			if !ok {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
