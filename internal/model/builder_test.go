package model

import (
	"math"
	"reflect"
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
// the CPA, its copy of the grid, its offsets and its values, plus the
// checksums of -tags invariantdebug builds. The engines, samples,
// observation arenas, cell spans and merge counts are all reused.
func TestWarmBuildCPAAllocatesOnlyTable(t *testing.T) {
	p := threeStageProfile(t)
	ind := progress.NewTotalWorkWithQ(p)
	cfg := CPAConfig{Allocs: []int{2, 6, 20, 100, 120}, RunsPerAlloc: 6, Seed: 3, Parallelism: 1}
	b := new(Builder)
	if _, err := b.BuildCPA(p, ind, cfg); err != nil {
		t.Fatal(err)
	}
	want := 4.0
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
