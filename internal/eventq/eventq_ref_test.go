package eventq

// The hand-rolled heap must be observably indistinguishable from the
// container/heap implementation it replaced: (time, seq) is a total order,
// so the pop sequence is fully determined by the push sequence. refQueue
// below is a faithful copy of the old adapter; the randomized test drives
// both with identical interleaved push/pop workloads.

import (
	"container/heap"
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

// TestMatchesContainerHeapReference drives the boxing-free heap and the old
// container/heap adapter with the same random interleaving of pushes and
// pops and requires identical results at every step.
func TestMatchesContainerHeapReference(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		rng := stats.NewRNG(seed)
		ops := 50 + int(opsRaw)%2000
		var q Queue[int]
		var ref refQueue
		for i := 0; i < ops; i++ {
			// Bias toward pushes so the heap grows; cluster times so ties
			// (seq ordering) are exercised heavily.
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
// interface value per Push).
func TestSteadyStateZeroAllocs(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 256; i++ {
		q.Push(time.Duration(i), i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at, v, _ := q.Pop()
		q.Push(at+256, v)
	})
	if allocs != 0 {
		t.Errorf("steady-state Push/Pop = %v allocs/run, want 0", allocs)
	}
}

// BenchmarkEventQueue measures steady-state Push+Pop at a constant depth —
// the simulator's per-task-attempt cost.
func BenchmarkEventQueue(b *testing.B) {
	var q Queue[int]
	for i := 0; i < 256; i++ {
		q.Push(time.Duration(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, v, _ := q.Pop()
		q.Push(at+256, v)
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
