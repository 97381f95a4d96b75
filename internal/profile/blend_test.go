package profile

import (
	"math"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

func blendJob() *dag.Job {
	return dag.NewBuilder("blend-test").
		Stage("a", 10).
		Stage("b", 10).
		Edge("a", "b", dag.AllToAll).
		MustBuild()
}

// liveTrace returns a trace with n successful 20s tasks in stage 0 and
// nothing in stage 1.
func liveTrace(n int) *trace.JobTrace {
	tr := trace.New("blend-test", 2)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Minute
		tr.AddTask(trace.TaskEvent{
			Stage: 0, Task: i % 10, Attempt: i / 10,
			Queued: at, Dispatched: at, Started: at, Ended: at + 20*time.Second,
		})
	}
	return tr
}

func TestBlendCountWeighting(t *testing.T) {
	prior := MustNew(blendJob(), []StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 10 * time.Second}},
	})
	// 30 live samples of 20s against a 10-task prior of 10s, which counts
	// as round(10·priorWeight) = 3 pseudo-samples: the blended mean should
	// be the pooled mean (3·10 + 30·20)/33 ≈ 19.09s.
	got, err := Blend(prior, liveTrace(30))
	if err != nil {
		t.Fatalf("Blend: %v", err)
	}
	want := 630 * time.Second / 33
	if m := got.Stages[0].Exec.Mean(); absDur(m-want) > time.Second {
		t.Fatalf("blended mean = %v, want ~%v", m, want)
	}
	// Aggregates are refilled from the blended distribution.
	if tw := got.Stages[0].TotalWork; absDur(tw-10*want) > 10*time.Second {
		t.Fatalf("blended TotalWork = %v, want ~%v", tw, 10*want)
	}
	// The unobserved stage keeps its prior, scaled by the job-wide drift:
	// stage 0 runs at twice its prior mean, so stage 1's 10s becomes 20s.
	if m := got.Stages[1].Exec.Mean(); m != 20*time.Second {
		t.Fatalf("unobserved stage mean = %v, want 20s", m)
	}
}

func TestBlendPriorWeight(t *testing.T) {
	job := dag.NewBuilder("blend-test").
		Stage("a", 40).
		Stage("b", 10).
		Edge("a", "b", dag.AllToAll).
		MustBuild()
	prior := MustNew(job, []StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 10 * time.Second}},
	})
	// A quarter weight makes the 40-task prior count as 10 pseudo-samples:
	// (10·10 + 30·20)/40 = 17.5s. At full weight it would be ~14.3s.
	got, err := Blend(prior, liveTrace(30))
	if err != nil {
		t.Fatalf("Blend: %v", err)
	}
	want := 17500 * time.Millisecond
	if m := got.Stages[0].Exec.Mean(); absDur(m-want) > 100*time.Millisecond {
		t.Fatalf("blended mean = %v, want ~%v", m, want)
	}
}

func TestBlendMinStageSamples(t *testing.T) {
	prior := MustNew(blendJob(), []StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 10 * time.Second}},
	})
	got, err := Blend(prior, liveTrace(2))
	if err != nil {
		t.Fatalf("Blend: %v", err)
	}
	if m := got.Stages[0].Exec.Mean(); m != 10*time.Second {
		t.Fatalf("stage below minStageSamples moved: mean = %v", m)
	}
}

func TestBlendFailureProb(t *testing.T) {
	prior := MustNew(blendJob(), []StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 10 * time.Second}},
	})
	tr := liveTrace(10)
	for i := 0; i < 10; i++ {
		at := time.Duration(100+i) * time.Minute
		tr.AddTask(trace.TaskEvent{
			Stage: 0, Task: i, Attempt: 9,
			Queued: at, Dispatched: at, Started: at, Ended: at + 5*time.Second,
			Failed: true,
		})
	}
	got, err := Blend(prior, tr)
	if err != nil {
		t.Fatalf("Blend: %v", err)
	}
	// Prior failure prob 0 over 3 pseudo-attempts, live 10/20: pooled
	// (0·3 + 10)/(3 + 20) = 10/23.
	if fp := got.Stages[0].FailureProb; math.Abs(fp-10.0/23) > 1e-9 {
		t.Fatalf("blended FailureProb = %v, want 10/23", fp)
	}
}

func TestBlendRejectsBadInput(t *testing.T) {
	prior := MustNew(blendJob(), []StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 10 * time.Second}},
	})
	if _, err := Blend(nil, liveTrace(1)); err == nil {
		t.Fatalf("Blend accepted nil prior")
	}
	if _, err := Blend(prior, nil); err == nil {
		t.Fatalf("Blend accepted nil trace")
	}
	bad := trace.New("blend-test", 2)
	bad.AddTask(trace.TaskEvent{Stage: 7})
	if _, err := Blend(prior, bad); err == nil {
		t.Fatalf("Blend accepted out-of-range stage")
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
