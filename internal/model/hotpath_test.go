package model

// Regression tests for the allocation-free query path: presorted cells
// must answer quantile queries bit-identically to the old copy-and-sort-
// per-query implementation, tables must stay bit-identical across worker
// counts (including the reused-engine fan-out), and the steady-state query
// path must not allocate.

import (
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
)

// referenceRemaining reimplements the pre-presort Remaining: copy the
// cell, sort the copy, interpolate. Equivalence with the zero-copy path
// follows from cells being sorted at build time — this test keeps that
// reasoning honest.
func referenceRemaining(c *CPA, st State, a int, q float64) time.Duration {
	samples := c.samplesAt(c.Progress(st), a)
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return stats.QuantileDurations(sorted, q)
}

func TestPresortedQuantilesMatchReference(t *testing.T) {
	p := noisyProfile(t)
	c := buildCPAWithParallelism(t, 4)
	for _, a := range []int{1, 2, 5, 15, 40, 100} {
		for _, frac := range []float64{0, 0.1, 0.33, 0.5, 0.77, 0.99, 1} {
			st := State{FracDone: []float64{frac, frac}}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 1} {
				got := Remaining(c, st, a, q)
				want := referenceRemaining(c, st, a, q)
				if got != want {
					t.Fatalf("Remaining(frac=%v, a=%d, q=%v) = %v; copy-and-sort reference = %v",
						frac, a, q, got, want)
				}
			}
		}
	}
	_ = p
}

// TestCPACellsSortedAscending: every non-empty cell must be sorted after
// BuildCPA — the invariant Remaining's direct indexing depends on.
func TestCPACellsSortedAscending(t *testing.T) {
	c := buildCPAWithParallelism(t, 2)
	for i := 0; i < len(c.offs)-1; i++ {
		if vs := c.cell(i); !slices.IsSorted(vs) {
			t.Fatalf("cell (a=%d, b=%d) unsorted: %v", c.allocs[i/(buckets+1)], i%(buckets+1), vs)
		}
	}
}

// TestCPABitIdenticalAcrossParallelism extends the determinism pin to the
// reused-engine fan-out: the flat table — every cell's offsets and
// retained samples, and so every quantile read from them — must be
// bit-identical at parallelism 1, 4 and 8.
func TestCPABitIdenticalAcrossParallelism(t *testing.T) {
	seq := buildCPAWithParallelism(t, 1)
	for _, par := range []int{4, 8} {
		c := buildCPAWithParallelism(t, par)
		if !slices.Equal(c.offs, seq.offs) || !slices.Equal(c.vals, seq.vals) {
			t.Fatalf("par %d: table differs from the sequential build", par)
		}
	}
}

// TestOnlineSimBitIdenticalAcrossParallelism: same pin for the online
// predictor's forward runs on the Builder's per-worker reused engines at
// parallelism 1, 4, 8.
func TestOnlineSimBitIdenticalAcrossParallelism(t *testing.T) {
	p := noisyProfile(t)
	build := func(par int) *OnlineSim {
		o, err := NewOnlineSim(p, 8, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		o.SetParallelism(par)
		return o
	}
	states := []State{
		{FracDone: []float64{0, 0}},
		{Elapsed: 3 * time.Minute, FracDone: []float64{0.5, 0}},
		{Elapsed: 11 * time.Minute, FracDone: []float64{1, 0.75}},
	}
	seq := build(1)
	for _, par := range []int{4, 8} {
		o := build(par)
		for _, st := range states {
			for _, a := range []int{1, 6, 30} {
				for _, q := range []float64{0, 0.5, 0.95, 1} {
					if got, want := Remaining(o, st, a, q), Remaining(seq, st, a, q); got != want {
						t.Fatalf("par %d: Remaining(a=%d, q=%v) = %v, want %v", par, a, q, got, want)
					}
				}
			}
		}
	}
}

// TestCPAQueryZeroAllocs pins the acceptance criterion: steady-state
// Samples and Remaining queries perform zero allocations.
func TestCPAQueryZeroAllocs(t *testing.T) {
	p := noisyProfile(t)
	c := buildTestCPA(t, p, []int{2, 5, 15, 40})
	st := State{Elapsed: 5 * time.Minute, FracDone: []float64{0.5, 0.25}}
	var ssink []time.Duration
	allocs := testing.AllocsPerRun(100, func() {
		ssink = c.Samples(st, 15)
	})
	if allocs != 0 {
		t.Errorf("Samples = %v allocs/run, want 0", allocs)
	}
	var sink time.Duration
	allocs = testing.AllocsPerRun(100, func() {
		sink = Remaining(c, st, 15, 0.9)
	})
	if allocs != 0 {
		t.Errorf("Remaining = %v allocs/run, want 0", allocs)
	}
	_, _ = ssink, sink
}

// TestAmdahlSamplesZeroAllocs: the analytic predictor's one-value sample
// lives in the predictor, so a query allocates nothing.
func TestAmdahlSamplesZeroAllocs(t *testing.T) {
	m := NewAmdahl(noisyProfile(t))
	st := State{Elapsed: 5 * time.Minute, FracDone: []float64{0.5, 0.25}}
	var sink time.Duration
	allocs := testing.AllocsPerRun(100, func() {
		sink = Remaining(m, st, 15, 0.9)
	})
	if allocs != 0 {
		t.Errorf("Amdahl Samples = %v allocs/run, want 0", allocs)
	}
	_ = sink
}

// TestBuildCPAAllocsIndependentOfBuckets: the flat table costs a fixed
// number of allocations whatever its cell count. A grid of four allocations
// has four times the cells of a grid of one; with the same number of
// simulations of one fixed-length job, the two builds must allocate the
// same (a per-cell sample object would add hundreds).
func TestBuildCPAAllocsIndependentOfBuckets(t *testing.T) {
	p := detProfile(t)
	ind := progress.NewTotalWorkWithQ(p)
	allocsAt := func(grid []int, runs int) float64 {
		cfg := CPAConfig{Allocs: grid, RunsPerAlloc: runs, Seed: 42, Parallelism: 1}
		return testing.AllocsPerRun(5, func() {
			if _, err := new(Builder).BuildCPA(p, ind, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, four := allocsAt([]int{100}, 24), allocsAt([]int{100, 200, 300, 400}, 6)
	if one != four {
		t.Errorf("BuildCPA = %v allocs at one allocation, %v at four; want equal", one, four)
	}
}

// TestOnlineSimMemoHitZeroAllocs: within one control tick (unchanged
// state), repeated queries for an already-simulated allocation must not
// allocate — the state's label is built into a reused buffer and the
// sample slice comes from the memo.
func TestOnlineSimMemoHitZeroAllocs(t *testing.T) {
	p := noisyProfile(t)
	o, err := NewOnlineSim(p, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := State{Elapsed: time.Minute, FracDone: []float64{0.25, 0}}
	o.Samples(st, 10) // fill the memo
	var sink time.Duration
	allocs := testing.AllocsPerRun(100, func() {
		sink = Remaining(o, st, 10, 0.5)
	})
	if allocs != 0 {
		t.Errorf("memo-hit Samples = %v allocs/run, want 0", allocs)
	}
	_ = sink
}

// TestOnlineSimMemoMissAllocatesOnlySamples: on a warm Builder, a memo
// miss at an unchanged state runs its forward simulations on reused
// engines and result slots, so the one allocation is the returned sample
// slice.
func TestOnlineSimMemoMissAllocatesOnlySamples(t *testing.T) {
	p := noisyProfile(t)
	o, err := NewOnlineSim(p, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.SetParallelism(1)
	st := State{Elapsed: time.Minute, FracDone: []float64{0.25, 0}}
	o.Samples(st, 10) // warm the Builder
	var sink []time.Duration
	allocs := testing.AllocsPerRun(100, func() {
		clear(o.memoSamples)
		sink = o.Samples(st, 10)
	})
	if allocs != 1 {
		t.Errorf("memo-miss Samples = %v allocs/run, want 1 (the sample slice)", allocs)
	}
	_ = sink
}

// TestOnlineSimSeedsMatchLegacyLabels pins every forward run's seed to the
// legacy derivation DeriveSeed(seed, "online", key, a, r), key being 3
// bytes (v>>8, v, ',') per stage followed by the elapsed whole seconds in
// decimal: a change of label format would silently move every online
// prediction. It checks the seeds directly and through the samples, which
// must equal the sorted completions of runs seeded the legacy way.
func TestOnlineSimSeedsMatchLegacyLabels(t *testing.T) {
	p := noisyProfile(t)
	const runs, seed = 5, 11
	o, err := NewOnlineSim(p, runs, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacyKey := func(st State) string {
		out := make([]byte, 0, len(st.FracDone)*3)
		for _, f := range st.FracDone {
			v := int(f * 1000)
			out = append(out, byte(v>>8), byte(v), ',')
		}
		return string(out) + strconv.Itoa(int(st.Elapsed/time.Second))
	}
	states := []State{
		{FracDone: []float64{0, 0}},
		{Elapsed: 90 * time.Second, FracDone: []float64{0.5115, 0.25}},
		{Elapsed: 754 * time.Second, FracDone: []float64{1, 0.3}},
		{Elapsed: 12345 * time.Second, FracDone: []float64{0.999, 0.125}},
	}
	rn := sim.NewRunner()
	for _, st := range states {
		for _, a := range []int{1, 7, 100, 250} {
			got := o.Samples(st, a)
			var want []time.Duration
			for r := range runs {
				legacy := stats.DeriveSeed(seed, "online", legacyKey(st), strconv.Itoa(a), strconv.Itoa(r))
				if s := stats.DeriveSeedLabelInt(seed, o.label, a, r); s != legacy {
					t.Fatalf("state %v, a=%d, run %d: seed %#x, legacy %#x", st, a, r, s, legacy)
				}
				c, err := rn.Completion(sim.Config{Profile: p, Alloc: a, Seed: legacy, InitialFracDone: st.FracDone})
				if err == nil {
					want = append(want, c)
				}
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("state %v, a=%d: samples %v, legacy-seeded runs %v", st, a, got, want)
			}
		}
	}
}

// TestOnlineSimOnSharedBuilder: an OnlineSim whose forward runs share a
// Builder with interleaved C(p, a) builds of another job returns the same
// samples as one on a Builder of its own, and the builds match builds on
// a fresh Builder.
func TestOnlineSimOnSharedBuilder(t *testing.T) {
	p, other := noisyProfile(t), detProfile(t)
	ind := progress.NewTotalWorkWithQ(other)
	cfg := CPAConfig{Allocs: []int{2, 5, 15}, RunsPerAlloc: 3, Seed: 9, Parallelism: 4}
	want, err := new(Builder).BuildCPA(other, ind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := new(Builder)
	shared, err := NewOnlineSim(p, 6, 3, b)
	if err != nil {
		t.Fatal(err)
	}
	own, err := NewOnlineSim(p, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared.SetParallelism(2)
	for i, st := range []State{
		{FracDone: []float64{0, 0}},
		{Elapsed: 4 * time.Minute, FracDone: []float64{0.6, 0}},
		{Elapsed: 9 * time.Minute, FracDone: []float64{1, 0.5}},
	} {
		for _, a := range []int{1, 6, 30} {
			c, err := b.BuildCPA(other, ind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(c.offs, want.offs) || !slices.Equal(c.vals, want.vals) {
				t.Fatalf("state %d, a=%d: build on the shared Builder differs from a fresh one", i, a)
			}
			if got, want := shared.Samples(st, a), own.Samples(st, a); !slices.Equal(got, want) {
				t.Fatalf("state %d, a=%d: shared-Builder samples %v, own Builder %v", i, a, got, want)
			}
		}
	}
}

// BenchmarkCPAQuery measures the controller-facing query path on a built
// table. The acceptance criterion is 0 allocs/op for Samples and Remaining
// (a quantile was 3 allocs/op via copy+sort before presorting).
func BenchmarkCPAQuery(b *testing.B) {
	p := noisyProfile(b)
	c := buildTestCPA(b, p, []int{2, 5, 15, 40})
	st := State{Elapsed: 5 * time.Minute, FracDone: []float64{0.5, 0.25}}
	b.Run("Samples", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Samples(st, 15)
		}
	})
	b.Run("Remaining", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Remaining(c, st, 15, 0.9)
		}
	})
}

// BenchmarkOnlineSimTick measures one full control tick of the online
// predictor (all candidate allocations at one state) with reused
// per-worker engines, plus the memo-hit fast path.
func BenchmarkOnlineSimTick(b *testing.B) {
	p := noisyProfile(b)
	o, err := NewOnlineSim(p, 8, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	o.SetParallelism(1)
	b.Run("tick", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Vary elapsed so every iteration is a fresh state (a real tick).
			st := State{Elapsed: time.Duration(i) * time.Second, FracDone: []float64{0.5, 0.25}}
			for _, a := range []int{2, 5, 15, 40} {
				o.Samples(st, a)
			}
		}
	})
	b.Run("memo-hit", func(b *testing.B) {
		st := State{Elapsed: time.Minute, FracDone: []float64{0.5, 0.25}}
		o.Samples(st, 15)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Samples(st, 15)
		}
	})
}
