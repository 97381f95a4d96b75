package model

import (
	"reflect"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
)

// threeStageProfile is a map → join → reduce job whose stages differ in
// width and runtime, so indicators that weigh stages differently put the
// same simulated state in different progress buckets.
func threeStageProfile(t testing.TB) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("three").
		Stage("map", 30).
		Stage("join", 12).
		Stage("reduce", 4).
		Edge("map", "join", dag.AllToAll).
		Edge("join", "reduce", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(10*time.Second, 30*time.Second), FailureProb: 0.02},
		{Exec: stats.LognormalFromMedian(40*time.Second, 90*time.Second)},
		{Exec: stats.LognormalFromMedian(20*time.Second, 40*time.Second)},
	})
}

// TestSharedPassMatchesSingleBuilds: every table of one k-indicator build
// is exactly the table a single-indicator build with the same CPAConfig
// makes, at any worker count — sharing the simulations changes no draw,
// including the reservoir replacements that more runs per allocation than
// a cell holds force.
func TestSharedPassMatchesSingleBuilds(t *testing.T) {
	p := threeStageProfile(t)
	ref, err := sim.NewRunner().Run(sim.Config{Profile: p, Alloc: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inds := []progress.Indicator{
		progress.NewTotalWorkWithQ(p),
		progress.NewCP(p),
		progress.NewVertexFrac(p),
		progress.NewMinStage(progress.SpansFromTrace(ref, p.Job.NumStages())),
	}
	for _, par := range []int{1, 4} {
		cfg := CPAConfig{
			Allocs:       []int{2, 6, 20},
			RunsPerAlloc: reservoirCap + 6,
			Seed:         9,
			Parallelism:  par,
		}
		if !evicts(buildCPAReference(t, p, inds[0], cfg)) {
			t.Fatalf("parallelism %d: no cell overflowed; the replacement path is untested", par)
		}
		shared, err := new(Builder).BuildCPAs(p, inds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(shared) != len(inds) {
			t.Fatalf("parallelism %d: %d tables for %d indicators", par, len(shared), len(inds))
		}
		for j, ind := range inds {
			single, err := new(Builder).BuildCPA(p, ind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(shared[j], single) {
				t.Errorf("parallelism %d: shared-pass %s table differs from its single build", par, ind.Name())
			}
		}
		// The indicators must actually bucket differently, or the check
		// above could not tell the tables apart.
		if reflect.DeepEqual(shared[0].offs, shared[3].offs) {
			t.Errorf("parallelism %d: totalworkWithQ and minstage tables have identical cell sizes", par)
		}
	}
}
