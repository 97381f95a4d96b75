package jockey_test

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey"
)

// TestPublicAPIEndToEnd exercises the whole public surface the way a
// downstream user would: plan -> profile -> runtime -> policy -> cluster.
func TestPublicAPIEndToEnd(t *testing.T) {
	job := jockey.NewJobBuilder("wordcount").
		Stage("map", 40).
		Stage("reduce", 8).
		Edge("map", "reduce", jockey.AllToAll).
		MustBuild()
	prof := jockey.MustNewProfile(job, []jockey.StageProfile{
		{Exec: jockey.LognormalFromMedian(5*time.Second, 15*time.Second)},
		{Exec: jockey.LognormalFromMedian(20*time.Second, 40*time.Second)},
	})
	jk, err := jockey.New(prof, jockey.Options{
		MaxTokens:    30,
		RunsPerAlloc: 4,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := 10 * time.Minute
	if !jk.Feasible(deadline) {
		t.Fatal("deadline should be feasible")
	}
	pol, err := jk.Policy(deadline)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := jockey.NewCluster(jockey.ClusterConfig{
		Machines: 10, SlotsPerMachine: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Submit(jockey.JobConfig{
		Profile:  prof,
		Policy:   pol,
		Deadline: deadline,
		Tracked:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	if !r.Met {
		t.Errorf("missed SLO: %v", r.Completion)
	}
	if r.Trace == nil {
		t.Fatal("no trace")
	}
	// A profile can be re-extracted from the controlled run.
	prof2, err := jockey.ProfileFromTrace(job, r.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if prof2.TotalWork() <= 0 {
		t.Error("re-extracted profile has no work")
	}
}

// TestPublicGuardedPolicy drives the guard-rail entry point of the facade:
// a guarded policy fed the job's live task stream runs to completion under a
// mid-run 2x service-time drift, and every control tick reports its guard mode.
func TestPublicGuardedPolicy(t *testing.T) {
	job := jockey.NewJobBuilder("drifting").
		Stage("map", 40).
		Stage("reduce", 8).
		Edge("map", "reduce", jockey.AllToAll).
		MustBuild()
	prof := jockey.MustNewProfile(job, []jockey.StageProfile{
		{Exec: jockey.LognormalFromMedian(5*time.Second, 15*time.Second)},
		{Exec: jockey.LognormalFromMedian(20*time.Second, 40*time.Second)},
	})
	jk, err := jockey.New(prof, jockey.Options{MaxTokens: 30, RunsPerAlloc: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := 10 * time.Minute
	guard, err := jk.GuardedPolicy(deadline)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := jockey.NewCluster(jockey.ClusterConfig{Machines: 10, SlotsPerMachine: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.Submit(jockey.JobConfig{
		Profile:     prof,
		Policy:      guard,
		Deadline:    deadline,
		Tracked:     true,
		Drifts:      []jockey.StageDrift{{At: 2 * time.Minute, Stage: -1, Factor: 2}},
		OnTaskEvent: guard.ObserveTask,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	if r.Completion <= 0 {
		t.Fatalf("guarded job did not complete: %+v", r)
	}
	if len(r.Trace.Timeline) == 0 {
		t.Fatal("guarded policy never ran")
	}
	for _, p := range r.Trace.Timeline {
		if p.Mode == "" {
			t.Fatalf("timeline point at %v has no guard mode", p.T)
		}
	}
}

func TestPublicScriptCompilation(t *testing.T) {
	job, err := jockey.CompileScript(`
JOB "clicks";
EXTRACT raw FROM "clicks.tsv" TASKS 40;
REDUCE sessions FROM raw ON user TASKS 10;
OUTPUT sessions TO "sessions.tsv";
`)
	if err != nil {
		t.Fatal(err)
	}
	if job.NumStages() != 2 || job.NumBarrierStages() != 1 {
		t.Errorf("plan shape: %v", job)
	}
}

func TestPublicSimulateAndOracle(t *testing.T) {
	job := jockey.NewJobBuilder("tiny").Stage("only", 10).MustBuild()
	prof := jockey.MustNewProfile(job, []jockey.StageProfile{
		{Exec: jockey.Point{V: 6 * time.Second}},
	})
	tr, err := jockey.Simulate(jockey.SimConfig{Profile: prof, Alloc: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completion != 12*time.Second {
		t.Errorf("completion = %v, want 12s", tr.Completion)
	}
	if got := jockey.Oracle(time.Hour, 30*time.Minute); got != 2 {
		t.Errorf("Oracle = %d, want 2", got)
	}
	u := jockey.DeadlineUtility(time.Hour)
	if u.Utility(30*time.Minute) != 1 {
		t.Error("utility before deadline should be 1")
	}
	s := jockey.SoftDeadlineUtility(time.Hour, 10*time.Minute)
	if s.Utility(2*time.Hour) != 0 {
		t.Error("soft utility should bottom out at 0")
	}
}
