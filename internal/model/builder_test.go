package model

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
)

// hugeProfile has a stage too wide for the simulator's int32 task index,
// so every simulation of it fails before it starts.
func hugeProfile(t testing.TB) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("huge").Stage("a", math.MaxInt32).Stage("b", 2).
		Edge("a", "b", dag.AllToAll).MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: time.Second}},
		{Exec: stats.Point{V: time.Second}},
	})
}

// TestBuilderReuseMatchesOneShot: one Builder carried through builds of
// different plans, indicator sets, allocation grids and worker counts,
// including builds that fail, makes every table exactly as a fresh Builder
// does. Its arenas, spans and counts carry nothing from one build into the
// next.
func TestBuilderReuseMatchesOneShot(t *testing.T) {
	three, noisy, det := threeStageProfile(t), noisyProfile(t), detProfile(t)
	ref, err := sim.NewRunner().Run(sim.Config{Profile: three, Alloc: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	threeInds := []progress.Indicator{
		progress.NewTotalWorkWithQ(three),
		progress.NewCP(three),
		progress.NewMinStage(progress.SpansFromTrace(ref, three.Job.NumStages())),
	}
	huge := hugeProfile(t)
	steps := []struct {
		name    string
		p       *profile.Profile
		inds    []progress.Indicator
		cfg     CPAConfig
		wantErr bool
	}{
		{"three/3 indicators", three, threeInds,
			CPAConfig{Allocs: []int{2, 6, 20}, RunsPerAlloc: reservoirCap + 6, Seed: 9}, false},
		{"noisy/1 indicator", noisy, []progress.Indicator{progress.NewVertexFrac(noisy)},
			CPAConfig{Allocs: []int{1, 3, 9, 27, 81}, RunsPerAlloc: 7, Seed: 4}, false},
		{"huge/plan rejected", huge, []progress.Indicator{progress.NewTotalWork(huge)},
			CPAConfig{Allocs: []int{4, 8}, RunsPerAlloc: 3, Seed: 1}, true},
		{"det/2 indicators", det, []progress.Indicator{progress.NewTotalWorkWithQ(det), progress.NewCP(det)},
			CPAConfig{Allocs: []int{5}, RunsPerAlloc: 12, Seed: 5}, false},
		{"det/grid rejected", det, []progress.Indicator{progress.NewCP(det)},
			CPAConfig{Allocs: []int{5, 3}, RunsPerAlloc: 2, Seed: 5}, true},
		{"three/1 indicator", three, threeInds[2:],
			CPAConfig{Allocs: []int{3, 4, 50}, RunsPerAlloc: 4, Seed: 2}, false},
	}
	b := new(Builder)
	for _, par := range []int{4, 1, 4} {
		for _, s := range steps {
			cfg := s.cfg
			cfg.Parallelism = par
			got, err := b.BuildCPAs(s.p, s.inds, cfg)
			if s.wantErr {
				if err == nil {
					t.Errorf("parallelism %d, %s: reused build succeeded, want an error", par, s.name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("parallelism %d, %s: %v", par, s.name, err)
			}
			want, err := new(Builder).BuildCPAs(s.p, s.inds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallelism %d, %s: reused Builder's tables differ from a fresh Builder's", par, s.name)
			}
			single, err := b.BuildCPA(s.p, s.inds[0], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(single, want[0]) {
				t.Errorf("parallelism %d, %s: reused BuildCPA differs from a fresh Builder's first table", par, s.name)
			}
		}
	}
	if b.p != nil || b.inds != nil || b.allocs != nil || b.one[0] != nil {
		t.Error("an idle Builder still references its last build's profile, indicators or grid")
	}
}

// TestWarmBuildCPAAllocatesOnlyTable: once a Builder has run a build of a
// plan, the next build of it allocates only what the returned table keeps:
// the CPA, its offsets and its values, plus the checksums of
// -tags invariantdebug builds. The engines, samples, observation arenas,
// cell spans and merge counts are all reused, and the table shares the
// last build's copy of the grid.
func TestWarmBuildCPAAllocatesOnlyTable(t *testing.T) {
	p := threeStageProfile(t)
	ind := progress.NewTotalWorkWithQ(p)
	cfg := CPAConfig{Allocs: []int{2, 6, 20, 100, 120}, RunsPerAlloc: 6, Seed: 3, Parallelism: 1}
	b := new(Builder)
	if _, err := b.BuildCPA(p, ind, cfg); err != nil {
		t.Fatal(err)
	}
	want := 3.0
	if invariant.Debug {
		want++
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := b.BuildCPA(p, ind, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Errorf("warm BuildCPA = %v allocs, want %v (the table's own)", got, want)
	}
}

// TestWarmRebuildAllocatesNothing: a warm Builder whose owner retires each
// table before the next build of its plan builds into the retired table's
// arrays, so a rebuild allocates nothing. In -tags invariantdebug builds a
// retired table stays retired for good, so Retire pays a new header for
// its arrays: 1 object.
func TestWarmRebuildAllocatesNothing(t *testing.T) {
	p := threeStageProfile(t)
	ind := progress.NewTotalWorkWithQ(p)
	cfg := CPAConfig{Allocs: []int{2, 6, 20, 100, 120}, RunsPerAlloc: 6, Seed: 3, Parallelism: 1}
	b := new(Builder)
	c, err := b.BuildCPA(p, ind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Retire(c)
	want := 0.0
	if invariant.Debug {
		want = 1
	}
	got := testing.AllocsPerRun(5, func() {
		c, err := b.BuildCPA(p, ind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.Retire(c)
	})
	if got != want {
		t.Errorf("warm rebuild into a retired table = %v allocs, want %v", got, want)
	}
}

// TestRecycledTableMatchesFresh: a Builder that builds into tables retired
// from other plans, grid lengths and cell sizes returns exactly the
// cells, offsets and Samples a fresh Builder's table has. A recycled
// table's arrays are longer than the build needs, or hold the values of
// another plan, and none of that may show through.
func TestRecycledTableMatchesFresh(t *testing.T) {
	three, noisy, det := threeStageProfile(t), noisyProfile(t), detProfile(t)
	steps := []struct {
		p    *profile.Profile
		inds []progress.Indicator
		cfg  CPAConfig
	}{
		{noisy, []progress.Indicator{progress.NewVertexFrac(noisy)},
			CPAConfig{Allocs: []int{1, 3, 9, 27, 81}, RunsPerAlloc: reservoirCap + 6, Seed: 4}},
		{three, []progress.Indicator{progress.NewTotalWorkWithQ(three), progress.NewCP(three)},
			CPAConfig{Allocs: []int{2, 6, 20}, RunsPerAlloc: 9, Seed: 9}},
		{det, []progress.Indicator{progress.NewTotalWorkWithQ(det)},
			CPAConfig{Allocs: []int{5}, RunsPerAlloc: 3, Seed: 5}},
		{three, []progress.Indicator{progress.NewCP(three)},
			CPAConfig{Allocs: []int{3, 4, 50, 60}, RunsPerAlloc: 4, Seed: 2}},
		{noisy, []progress.Indicator{progress.NewTotalWork(noisy)},
			CPAConfig{Allocs: []int{2, 8}, RunsPerAlloc: 20, Seed: 1}},
	}
	states := []State{
		{FracDone: []float64{0, 0, 0}},
		{FracDone: []float64{0.4, 0.1, 0}},
		{FracDone: []float64{1, 0.7, 0.2}},
		{FracDone: []float64{1, 1, 1}},
	}
	b := new(Builder)
	var live []*CPA
	recycled := 0
	for round := range 3 {
		for i, s := range steps {
			pool := len(b.retired)
			got, err := b.BuildCPAs(s.p, s.inds, s.cfg)
			if err != nil {
				t.Fatal(err)
			}
			recycled += pool - len(b.retired)
			want, err := new(Builder).BuildCPAs(s.p, s.inds, s.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if !reflect.DeepEqual(got[j], want[j]) {
					t.Fatalf("round %d step %d table %d: recycled table differs from a fresh Builder's", round, i, j)
				}
				for _, st := range states {
					st.FracDone = st.FracDone[:s.p.Job.NumStages()]
					for _, a := range s.cfg.Allocs {
						if g, w := got[j].Samples(st, a), want[j].Samples(st, a); !slices.Equal(g, w) {
							t.Fatalf("round %d step %d table %d: Samples(%v, %d) = %v, want %v", round, i, j, st.FracDone, a, g, w)
						}
					}
				}
			}
			// Retire every table of the previous step, so the next build
			// picks among tables of other plans and sizes.
			for _, c := range live {
				b.Retire(c)
			}
			live = got
		}
	}
	if recycled < 2*len(steps) {
		t.Errorf("%d builds went into retired tables, want at least %d", recycled, 2*len(steps))
	}
}
