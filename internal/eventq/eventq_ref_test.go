package eventq

// The hand-rolled heap must be observably indistinguishable from the
// container/heap implementation it replaced: (time, seq) is a total order,
// so the pop sequence is fully determined by the push sequence. refQueue
// below is a faithful copy of the old adapter, plus the key reads, Reserve
// and Reset; the randomized test and the fuzz target drive both with
// identical interleaved workloads.

import (
	"container/heap"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

type refItem struct {
	at  time.Duration
	seq uint64
	v   int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type refQueue struct {
	h   refHeap
	seq uint64
}

func (q *refQueue) Push(at time.Duration, v int) {
	q.seq++
	heap.Push(&q.h, refItem{at: at, seq: q.seq, v: v})
}

func (q *refQueue) Pop() (time.Duration, int, bool) {
	if len(q.h) == 0 {
		return 0, 0, false
	}
	it := heap.Pop(&q.h).(refItem)
	return it.at, it.v, true
}

func (q *refQueue) PeekKey() (time.Duration, uint64, bool) {
	if len(q.h) == 0 {
		return 0, 0, false
	}
	return q.h[0].at, q.h[0].seq, true
}

func (q *refQueue) Reserve() uint64 {
	q.seq++
	return q.seq
}

func (q *refQueue) Len() int { return len(q.h) }

func (q *refQueue) Reset() {
	q.h = q.h[:0]
	q.seq = 0
}

// queueOp is one step of a differential workload.
type queueOp uint8

const (
	opPush queueOp = iota
	opPop
	opPeek
	opPeekKey
	opReserve
	opReset
	// opPromote lowers the promotion threshold so that the next Push moves
	// a heap-regime queue to the calendar, whatever root hole a Pop left.
	opPromote
)

// step applies op to q and to the reference and returns the first
// observable difference, Len included, or nil. A push schedules v at at.
func step(q *Queue[int], ref *refQueue, op queueOp, at time.Duration, v int) error {
	switch op {
	case opPush:
		q.Push(at, v)
		ref.Push(at, v)
	case opPop:
		at, v, ok := q.Pop()
		rat, rv, rok := ref.Pop()
		if at != rat || v != rv || ok != rok {
			return fmt.Errorf("Pop = (%v, %d, %v), reference (%v, %d, %v)", at, v, ok, rat, rv, rok)
		}
	case opPeek:
		at, ok := q.Peek()
		rat, _, rok := ref.PeekKey()
		if at != rat || ok != rok {
			return fmt.Errorf("Peek = (%v, %v), reference (%v, %v)", at, ok, rat, rok)
		}
	case opPeekKey:
		at, seq, ok := q.PeekKey()
		rat, rseq, rok := ref.PeekKey()
		if at != rat || seq != rseq || ok != rok {
			return fmt.Errorf("PeekKey = (%v, %d, %v), reference (%v, %d, %v)", at, seq, ok, rat, rseq, rok)
		}
	case opReserve:
		if seq, rseq := q.Reserve(), ref.Reserve(); seq != rseq {
			return fmt.Errorf("Reserve = %d, reference %d", seq, rseq)
		}
	case opReset:
		q.Reset()
		ref.Reset()
	case opPromote:
		if !q.onCal {
			calendarPromoteLen = q.Len() + 1
		}
	}
	if n, rn := q.Len(), ref.Len(); n != rn {
		return fmt.Errorf("Len = %d, reference %d", n, rn)
	}
	return nil
}

// drain pops q and the reference dry, returning the first difference.
func drain(q *Queue[int], ref *refQueue) error {
	for ref.Len() > 0 {
		if err := step(q, ref, opPop, 0, 0); err != nil {
			return err
		}
	}
	return step(q, ref, opPop, 0, 0) // both now report empty
}

// TestMatchesContainerHeapReference drives the boxing-free queue and the
// old container/heap adapter with the same random interleaving of Push,
// Pop, Peek, PeekKey, Reserve and Reset, comparing every result and Len at
// every step, in every regime. Pushes outnumber pops so the queue grows,
// and times cluster so that ties (seq ordering) are exercised heavily.
func TestMatchesContainerHeapReference(t *testing.T) {
	for _, regime := range Regimes {
		t.Run(regime, func(t *testing.T) {
			PinRegime(t, regime)
			f := func(seed uint64, opsRaw uint16) bool {
				rng := stats.NewRNG(seed)
				ops := 50 + int(opsRaw)%2000
				var q Queue[int]
				var ref refQueue
				for i := 0; i < ops; i++ {
					op := opPush
					switch r := rng.IntN(64); {
					case r == 0:
						op = opReset
					case r < 8:
						op = []queueOp{opPeek, opPeekKey, opReserve}[r%3]
					case r < 28:
						op = opPop
					}
					at := time.Duration(rng.IntN(64)) * time.Millisecond
					if err := step(&q, &ref, op, at, i); err != nil {
						t.Logf("op %d: %v", i, err)
						return false
					}
				}
				if err := drain(&q, &ref); err != nil {
					t.Logf("drain: %v", err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
	// The push that promotes a heap-regime queue finds a root hole left by
	// the Pop before it.
	t.Run("promote-with-hole", func(t *testing.T) {
		PinRegime(t, "heap")
		rng := stats.NewRNG(stats.DeriveSeed(2026, "promote-with-hole"))
		var q Queue[int]
		var ref refQueue
		ops := []queueOp{opPop, opPromote, opPush, opPeekKey}
		for i := 0; i < 200; i++ {
			op := opPush
			if i >= 100 {
				op = ops[i%len(ops)]
			}
			at := time.Duration(rng.IntN(32)) * time.Millisecond
			if err := step(&q, &ref, op, at, i); err != nil {
				t.Fatalf("op %d (%d): %v", i, op, err)
			}
			if op == opPush && i >= 100 && !q.onCal {
				t.Fatalf("op %d: the push after opPromote left the queue on the heap", i)
			}
		}
		if err := drain(&q, &ref); err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}

// fuzzOps decodes the low four bits of a fuzz byte into an op, weighted
// toward pushes so that the queue grows.
var fuzzOps = [16]queueOp{
	opPush, opPush, opPush, opPush, opPush, opPush, opPush,
	opPop, opPop, opPop, opPop,
	opPeek, opPeekKey, opReserve, opReset, opPromote,
}

// FuzzQueueMatchesReference is the generated form of
// TestMatchesContainerHeapReference. The first byte pins the regime; each
// further byte is one op, its low four bits naming the op (fuzzOps) and
// its high four bits a push's time in milliseconds, so that ties are
// common.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<14 {
			return
		}
		PinRegime(t, Regimes[int(data[0])%len(Regimes)])
		var q Queue[int]
		var ref refQueue
		for i, b := range data[1:] {
			op := fuzzOps[b&15]
			at := time.Duration(b>>4) * time.Millisecond
			if err := step(&q, &ref, op, at, i); err != nil {
				t.Fatalf("op %d (%d): %v", i, op, err)
			}
		}
		if err := drain(&q, &ref); err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}

// TestResetReusesCapacity: after Reset the queue behaves like a fresh one
// (sequence restarts, ordering intact) without reallocating its backing
// array.
func TestResetReusesCapacity(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 1000; i++ {
		q.Push(time.Duration(1000-i)*time.Millisecond, i)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop after Reset should be !ok")
	}
	if q.seq != 0 {
		t.Fatalf("seq after Reset = %d, want 0 (bit-identical to a fresh queue)", q.seq)
	}
	// Refilling to the previous high-water mark must not allocate.
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			q.Push(time.Duration(i)*time.Millisecond, i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		q.Reset()
	})
	if allocs != 0 {
		t.Errorf("refill within capacity after Reset allocated %v allocs/run, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocs pins the tentpole claim: Push/Pop at constant
// queue depth never allocates (the container/heap adapter boxed one
// interface value per Push). One cycle pushes through the root hole a Pop
// leaves; the other fills the hole with PeekKey first, as sim.Runner does
// when it checks its sampling clock, and takes a Reserve in between.
func TestSteadyStateZeroAllocs(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 256; i++ {
		q.Push(time.Duration(i), i)
	}
	cycles := []struct {
		name string
		run  func()
	}{
		{"pop-push", func() {
			at, v, _ := q.Pop()
			q.Push(at+256, v)
		}},
		{"peek-pop-reserve-push", func() {
			q.Peek()
			q.PeekKey()
			at, v, _ := q.Pop()
			q.PeekKey()
			q.Reserve()
			q.Push(at+256, v)
		}},
	}
	for _, c := range cycles {
		if allocs := testing.AllocsPerRun(1000, c.run); allocs != 0 {
			t.Errorf("steady-state %s = %v allocs/run, want 0", c.name, allocs)
		}
	}
}

// BenchmarkEventQueue measures steady-state Push+Pop at a constant depth —
// the simulator's per-task-attempt cost. A simulation holds one event per
// running task, so depth 40 is a run at a 40-token allocation; 256 is a
// deeper heap.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{40, 256} {
		b.Run("depth="+strconv.Itoa(depth), func(b *testing.B) {
			var q Queue[int]
			for i := 0; i < depth; i++ {
				q.Push(time.Duration(i), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, v, _ := q.Pop()
				q.Push(at+time.Duration(depth), v)
			}
		})
	}
}

// waveEvent is one event of an arrival wave.
type waveEvent struct {
	at time.Duration
	v  int
}

// waveEntries builds one n-event arrival wave: the shape a fleet-scale
// replay's first scheduling pass produces when hundreds of thousands of
// runnable tasks start at once.
func waveEntries(n int) []waveEvent {
	rng := stats.NewRNG(stats.DeriveSeed(17, "arrival-wave"))
	es := make([]waveEvent, n)
	for i := range es {
		es[i] = waveEvent{at: time.Duration(rng.Int64N(int64(2 * time.Hour))), v: i}
	}
	return es
}

// TestArrivalWaveZeroAllocs pins the wave path allocation-free: once a
// queue has reached its high-water capacity, a cycle of Reset, one Push per
// event and a full drain allocates nothing, in every regime. The 5e5-event
// wave crosses the promotion threshold under "auto" and grows the calendar
// ring several times, so promotion and resize stage through reused
// capacity too.
func TestArrivalWaveZeroAllocs(t *testing.T) {
	for _, regime := range Regimes {
		t.Run(regime, func(t *testing.T) {
			PinRegime(t, regime)
			for _, n := range []int{3000, 500_000} {
				t.Run(strconv.Itoa(n), func(t *testing.T) {
					es := waveEntries(n)
					var q Queue[int]
					cycle := func() {
						q.Reset()
						for _, e := range es {
							q.Push(e.at, e.v)
						}
						for {
							if _, _, ok := q.Pop(); !ok {
								break
							}
						}
					}
					cycle() // reach high-water capacity
					if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
						t.Fatalf("wave cycle allocated %.1f times, want 0", allocs)
					}
				})
			}
		})
	}
}

// BenchmarkArrivalWave times absorbing a 5e5-event wave into a Reset
// queue, one Push per event. Only the pushes are timed; the drain runs with
// the clock stopped. The wave crosses the promotion threshold mid-burst, so
// the binary heap absorbs the first events and hands them to the calendar.
func BenchmarkArrivalWave(b *testing.B) {
	es := waveEntries(500_000)
	var q Queue[int]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Reset()
		for _, e := range es {
			q.Push(e.at, e.v)
		}
		b.StopTimer()
		for {
			if _, _, ok := q.Pop(); !ok {
				break
			}
		}
		b.StartTimer()
	}
}
