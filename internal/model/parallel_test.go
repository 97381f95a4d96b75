package model

import (
	"fmt"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/progress"
)

// buildCPAWithParallelism builds the noisy-profile table at a fixed seed
// with the given worker count; everything else matches buildTestCPA.
func buildCPAWithParallelism(t testing.TB, par int) *CPA {
	t.Helper()
	p := noisyProfile(t)
	c, err := BuildCPA(p, progress.NewTotalWorkWithQ(p), CPAConfig{
		Allocs:       []int{2, 5, 15, 40},
		RunsPerAlloc: 6,
		SampleEvery:  10 * time.Second,
		Seed:         42,
		Parallelism:  par,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCPAParallelDeterminism is the regression test that forbids "fast but
// flaky": the C(p, a) table must be bit-identical regardless of worker
// count or completion order. It diffs every (p, a) cell's retained samples
// against the retired sequential reservoir build (cpa_ref_test.go) — a
// stronger check than comparing a few quantiles — and then spot-checks the
// quantiles the controller actually consumes.
func TestCPAParallelDeterminism(t *testing.T) {
	p := noisyProfile(t)
	ref := buildCPAReference(t, p, progress.NewTotalWorkWithQ(p), CPAConfig{
		Allocs:       []int{2, 5, 15, 40},
		RunsPerAlloc: 6,
		SampleEvery:  10 * time.Second,
		Seed:         42,
	})
	seq := buildCPAWithParallelism(t, 1)
	diffCPA(t, "parallelism 1", ref, seq)
	for _, par := range []int{2, 8} {
		p := buildCPAWithParallelism(t, par)
		diffCPA(t, fmt.Sprintf("parallelism %d", par), ref, p)
		// The quantiles the control loop reads must therefore agree too.
		for _, a := range seq.allocs {
			for _, frac := range []float64{0, 0.25, 0.6, 1} {
				st := State{FracDone: []float64{frac, frac}}
				for _, q := range []float64{0.5, 0.9, 1.0} {
					if got, want := p.Remaining(st, a, q), seq.Remaining(st, a, q); got != want {
						t.Fatalf("parallelism %d: Remaining(frac=%v, a=%d, q=%v) = %v, want %v",
							par, frac, a, q, got, want)
					}
				}
			}
		}
	}
}

// TestOnlineSimParallelDeterminism: the online predictor's forward runs
// must also produce identical predictions at any worker count.
func TestOnlineSimParallelDeterminism(t *testing.T) {
	p := noisyProfile(t)
	states := []State{
		{FracDone: []float64{0, 0}},
		{Elapsed: 3 * time.Minute, FracDone: []float64{0.5, 0}},
		{Elapsed: 8 * time.Minute, FracDone: []float64{1, 0.5}},
	}
	build := func(par int) *OnlineSim {
		o, err := NewOnlineSim(p, 8, 7)
		if err != nil {
			t.Fatal(err)
		}
		o.SetParallelism(par)
		return o
	}
	seq := build(1)
	for _, par := range []int{2, 8} {
		o := build(par)
		for _, st := range states {
			for _, a := range []int{1, 6, 30} {
				for _, q := range []float64{0.5, 0.95} {
					if got, want := o.Remaining(st, a, q), seq.Remaining(st, a, q); got != want {
						t.Fatalf("parallelism %d: Remaining(a=%d, q=%v) = %v, want %v", par, a, q, got, want)
					}
				}
			}
		}
	}
}

// TestCPAParallelismDefault: a zero/negative knob falls back to GOMAXPROCS
// rather than serializing or panicking.
func TestCPAParallelismDefault(t *testing.T) {
	cfg := CPAConfig{Allocs: []int{1}}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Parallelism < 1 {
		t.Fatalf("filled Parallelism = %d, want >= 1", cfg.Parallelism)
	}
}

// TestRunParallelCoversAllIndices exercises the work-distribution helper
// directly: every index must be visited exactly once at any worker count,
// including worker counts above the item count.
func TestRunParallelCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 37
		counts := make([]int32, n)
		done := make(chan struct{})
		go func() {
			defer close(done)
			runParallel(n, workers, func(i int) {
				// Each index is owned by exactly one worker, so a plain
				// increment is race-free by construction (and the -race CI
				// job verifies that claim).
				counts[i]++
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: runParallel did not finish", workers)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}
