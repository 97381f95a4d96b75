package model

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/progress"
)

// buildCPAWithParallelism builds the noisy-profile table at a fixed seed
// with the given worker count; everything else matches buildTestCPA.
func buildCPAWithParallelism(t testing.TB, par int) *CPA {
	t.Helper()
	p := noisyProfile(t)
	c, err := new(Builder).BuildCPA(p, progress.NewTotalWorkWithQ(p), CPAConfig{
		Allocs:       []int{2, 5, 15, 40},
		RunsPerAlloc: 6,
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
					if got, want := Remaining(p, st, a, q), Remaining(seq, st, a, q); got != want {
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
		o, err := NewOnlineSim(p, 8, 7, nil)
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
					if got, want := Remaining(o, st, a, q), Remaining(seq, st, a, q); got != want {
						t.Fatalf("parallelism %d: Remaining(a=%d, q=%v) = %v, want %v", par, a, q, got, want)
					}
				}
			}
		}
	}
}

// TestCPAParallelismDefault: a zero or negative knob sizes the pool by
// GOMAXPROCS rather than serializing or panicking, and builds the same
// table as one worker.
func TestCPAParallelismDefault(t *testing.T) {
	want := buildCPAWithParallelism(t, 1)
	for _, par := range []int{0, -1} {
		if got := buildCPAWithParallelism(t, par); !reflect.DeepEqual(got, want) {
			t.Fatalf("Parallelism %d: table differs from the Parallelism 1 build", par)
		}
	}
}
