package eventq

// PushBatch must be observably indistinguishable from k sequential Pushes:
// entries get consecutive insertion sequences in slice order, so the pop
// sequence is pinned regardless of which regime (heap or calendar) absorbs
// the batch, whether the batch crosses the default promotion threshold,
// and whether the calendar takes the incremental or the bulk-rebuild path.

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// drainBoth pops both queues dry and fails on the first divergence.
func drainBoth(t *testing.T, name string, got, want *Queue[int]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", name, got.Len(), want.Len())
	}
	for i := 0; ; i++ {
		wa, wv, wok := want.Pop()
		ga, gv, gok := got.Pop()
		if wok != gok {
			t.Fatalf("%s: pop %d ok=%v, want %v", name, i, gok, wok)
		}
		if !wok {
			return
		}
		if ga != wa || gv != wv {
			t.Fatalf("%s: pop %d got (%v, %d), want (%v, %d)", name, i, ga, gv, wa, wv)
		}
	}
}

// TestPushBatchMatchesSequentialPushes drives a batched and an unbatched
// queue through identical randomized workloads (interleaved batches, single
// pushes, and pops) under every regime, at sizes that exercise both regimes
// and the promotion crossing.
func TestPushBatchMatchesSequentialPushes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		regime  string
		batches []int // batch sizes pushed in turn
	}{
		{"heap-small", "heap", []int{1, 7, 63, 2, 300}},
		{"heap-large-heapify", "heap", []int{2000, 1, 2000}},
		{"calendar-incremental", "calendar", []int{3, 50, 3, 50}},
		{"calendar-bulk-rebuild", "calendar", []int{10000, 20000}},
		{"auto-promotion-crossing", "auto", []int{4000, 200, 4000}},
		{"auto-exact-threshold", "auto", []int{defaultPromoteLen}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			PinRegime(t, tc.regime)
			rng := stats.NewRNG(stats.DeriveSeed(42, "pushbatch-"+tc.name))
			var batched, plain Queue[int]
			v := 0
			for _, k := range tc.batches {
				es := make([]Entry[int], k)
				for i := range es {
					at := time.Duration(rng.Int64N(int64(time.Hour)))
					es[i] = Entry[int]{At: at, V: v}
					v++
				}
				batched.PushBatch(es)
				for _, e := range es {
					plain.Push(e.At, e.V)
				}
				// Interleave: drain a third of the queue, then a few single
				// pushes on both, so batches land on non-empty, partially
				// drained state.
				for i := 0; i < k/3; i++ {
					batched.Pop()
					plain.Pop()
				}
				for i := 0; i < 5; i++ {
					at := time.Duration(rng.Int64N(int64(time.Hour)))
					batched.Push(at, v)
					plain.Push(at, v)
					v++
				}
			}
			drainBoth(t, tc.name, &batched, &plain)
		})
	}
}

// A same-timestamp burst must pop in slice order: the batch assigns
// consecutive sequences, and (at, seq) breaks the tie.
func TestPushBatchSameTimestampBurst(t *testing.T) {
	for _, regime := range []string{"heap", "calendar"} {
		PinRegime(t, regime)
		var q Queue[int]
		es := make([]Entry[int], 5000)
		for i := range es {
			es[i] = Entry[int]{At: time.Minute, V: i}
		}
		q.PushBatch(es)
		for i := range es {
			_, v, ok := q.Pop()
			if !ok || v != i {
				t.Fatalf("%s: pop %d got (%d, %v), want (%d, true)", regime, i, v, ok, i)
			}
		}
	}
}

// An empty batch is a no-op: no sequence is consumed, so a later push ties
// exactly as if the batch never happened.
func TestPushBatchEmpty(t *testing.T) {
	var a, b Queue[int]
	a.PushBatch(nil)
	a.Push(time.Second, 1)
	b.Push(time.Second, 1)
	drainBoth(t, "empty-batch", &a, &b)
}

// Batching must also be regime-independent: the same batched workload run
// under a pinned heap and a pinned calendar pops identically.
func TestPushBatchRegimeIndependent(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(42, "pushbatch-regimes"))
	PinRegime(t, "heap")
	var heapQ, calQ Queue[int]
	calQ.promote() // a promoted queue stays on the calendar until Reset
	v := 0
	for round := 0; round < 40; round++ {
		k := 1 + int(rng.Int64N(700))
		es := make([]Entry[int], k)
		for i := range es {
			es[i] = Entry[int]{At: time.Duration(rng.Int64N(int64(24 * time.Hour))), V: v}
			v++
		}
		heapQ.PushBatch(es)
		calQ.PushBatch(es)
		for i := 0; i < k/2; i++ {
			wa, wv, _ := heapQ.Pop()
			ga, gv, _ := calQ.Pop()
			if ga != wa || gv != wv {
				t.Fatalf("round %d pop %d: calendar (%v, %d), heap (%v, %d)", round, i, ga, gv, wa, wv)
			}
		}
	}
	drainBoth(t, "regimes", &calQ, &heapQ)
}

// TestPushBatchZeroAllocs pins the steady-state claim in PushBatch's doc
// comment: once the queue (heap or calendar) has reached its high-water
// capacity, a batch push + drain cycle allocates nothing — the bulk-rebuild
// path stages through the reused scratch buffer and the heap path appends
// into standing capacity.
func TestPushBatchZeroAllocs(t *testing.T) {
	const k = 3000
	for _, regime := range []string{"heap", "calendar"} {
		t.Run(regime, func(t *testing.T) {
			PinRegime(t, regime)
			var q Queue[int]
			es := make([]Entry[int], k)
			for i := range es {
				es[i] = Entry[int]{At: time.Duration(i%97) * time.Second, V: i}
			}
			cycle := func() {
				q.PushBatch(es)
				for {
					if _, _, ok := q.Pop(); !ok {
						break
					}
				}
			}
			cycle() // reach high-water capacity
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Fatalf("%s: batch cycle allocated %.1f times, want 0", regime, allocs)
			}
		})
	}
}

// waveEntries builds one 5e5-event arrival wave — the shape a fleet-scale
// replay's first scheduling pass produces when hundreds of thousands of
// runnable tasks start at once.
func waveEntries(n int) []Entry[int] {
	rng := stats.NewRNG(stats.DeriveSeed(17, "arrival-wave"))
	es := make([]Entry[int], n)
	for i := range es {
		es[i] = Entry[int]{At: time.Duration(rng.Int64N(int64(2 * time.Hour))), V: i}
	}
	return es
}

// BenchmarkArrivalWaveSingle is the retired idiom: one Push per task-end
// event. Only the wave absorption is timed; the drain (identical in both
// variants) runs with the clock stopped. The wave crosses the promotion
// threshold mid-burst, so the binary heap absorbs thousands of events only to
// hand them to the calendar.
func BenchmarkArrivalWaveSingle(b *testing.B) {
	es := waveEntries(500_000)
	var q Queue[int]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Reset()
		for _, e := range es {
			q.Push(e.At, e.V)
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

// BenchmarkArrivalWaveBatch is the batched idiom internal/cluster now uses:
// the whole wave lands through one PushBatch, which promotes first and files
// the burst via a single right-sized calendar rebuild.
func BenchmarkArrivalWaveBatch(b *testing.B) {
	es := waveEntries(500_000)
	var q Queue[int]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Reset()
		q.PushBatch(es)
		b.StopTimer()
		for {
			if _, _, ok := q.Pop(); !ok {
				break
			}
		}
		b.StartTimer()
	}
}
