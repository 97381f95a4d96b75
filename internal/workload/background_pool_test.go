package workload

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
)

// poolProbe runs a small cluster under a background fleet plus one tracked
// probe job and returns the probe's result and the cluster clock — a compact
// fingerprint of the full replay.
func poolProbe(t *testing.T, submit func(*cluster.Cluster, BackgroundConfig) (int, error)) (cluster.Result, time.Duration) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Machines: 6, SlotsPerMachine: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := BackgroundConfig{MeanInterarrival: 30 * time.Second, Seed: 11}
	if _, err := submit(c, cfg); err != nil {
		t.Fatal(err)
	}
	job := dag.NewBuilder("probe").
		Stage("m", 20).
		Stage("r", 4).
		Edge("m", "r", dag.AllToAll).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(10*time.Second, 30*time.Second)},
		{Exec: stats.LognormalFromMedian(20*time.Second, 50*time.Second)},
	})
	h, err := c.Submit(cluster.JobConfig{Profile: p, Guarantee: 5,
		Deadline: 15 * time.Minute, Tracked: true, Start: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	r.Trace = nil // compared via the scalar fields; Engine tests cover traces
	return r, c.Now()
}

// TestBackgroundPoolBitIdentical pins the pool's reuse claim: a fleet
// submitted through a pool reused across fleets replays exactly like one
// submitted through a fresh pool.
func TestBackgroundPoolBitIdentical(t *testing.T) {
	wantRes, wantNow := poolProbe(t, NewBackgroundPool().SubmitBackground)
	pool := NewBackgroundPool()
	for round := 0; round < 2; round++ {
		gotRes, gotNow := poolProbe(t, pool.SubmitBackground)
		if gotRes != wantRes || gotNow != wantNow {
			t.Fatalf("round %d: reused pool's fleet diverged from a fresh pool's:\n got %+v @ %v\nwant %+v @ %v",
				round, gotRes, gotNow, wantRes, wantNow)
		}
	}
}

// TestBackgroundPoolReusesProfiles pins the point of the pool: the same job
// shape yields the same *profile.Profile (and thus the same *dag.Job for
// cluster.Engine's task-set keying) across fleets.
func TestBackgroundPoolReusesProfiles(t *testing.T) {
	pool := NewBackgroundPool()
	a, err := pool.profileFor(100, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.profileFor(100, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same shape built two distinct profiles")
	}
	if a.Job.Name != "bgb-100" {
		t.Errorf("canonical name = %q, want bgb-100", a.Job.Name)
	}
	plain, err := pool.profileFor(100, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain == a || plain.Job.Name != "bg-100" {
		t.Errorf("barrier and plain shapes must cache separately, got %q", plain.Job.Name)
	}
}
