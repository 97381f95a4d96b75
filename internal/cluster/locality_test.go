package cluster

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
)

func localityJob(t testing.TB, tasks int) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("loc").
		Stage("extract", tasks).
		Stage("agg", tasks/10+1).
		Edge("extract", "agg", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 20 * time.Second}},
		{Exec: stats.Point{V: 10 * time.Second}},
	})
}

func TestLocalityHighOnIdleCluster(t *testing.T) {
	// Alone on an under-subscribed cluster, a job's root tasks should land
	// on their replica machines almost always (3 replicas × 4 slots each
	// give every task 12 preferred slots).
	c, _ := New(Config{Machines: 20, SlotsPerMachine: 4, Seed: 1})
	h, err := c.Submit(JobConfig{Profile: localityJob(t, 60), Guarantee: 20,
		Deadline: time.Hour, Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := h.Result().LocalityFraction; got < 0.8 {
		t.Errorf("idle-cluster locality = %.2f, want >= 0.8", got)
	}
}

func TestLocalityDegradesUnderContention(t *testing.T) {
	// The same job on a cluster crammed with other work loses locality:
	// its guaranteed tasks must take whatever slots are free.
	runLoc := func(withLoad bool) float64 {
		c, _ := New(Config{Machines: 20, SlotsPerMachine: 4, Seed: 2})
		if withLoad {
			for i := 0; i < 6; i++ {
				bg := profile.MustNew(
					dag.NewBuilder("bg"+string(rune('0'+i))).Stage("work", 2000).MustBuild(),
					[]profile.StageProfile{{Exec: stats.Point{V: 30 * time.Second}}})
				if _, err := c.Submit(JobConfig{Profile: bg, Guarantee: 12}); err != nil {
					t.Fatal(err)
				}
			}
		}
		h, err := c.Submit(JobConfig{Profile: localityJob(t, 60), Guarantee: 8,
			Deadline: 2 * time.Hour, Tracked: true, Start: 5 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return h.Result().LocalityFraction
	}
	idle := runLoc(false)
	loaded := runLoc(true)
	if loaded >= idle {
		t.Errorf("locality should degrade under contention: idle %.2f vs loaded %.2f", idle, loaded)
	}
}

func TestReplicaMachinesDeterministicAndBounded(t *testing.T) {
	c, _ := New(Config{Machines: 7, SlotsPerMachine: 1, Seed: 1})
	p := localityJob(t, 10)
	h, _ := c.Submit(JobConfig{Profile: p, Guarantee: 7, Tracked: true})
	_ = h
	jr := c.jobs[0]
	for task := 0; task < 10; task++ {
		a := c.replicaMachines(jr, 0, task)
		b := c.replicaMachines(jr, 0, task)
		if len(a) != 3 {
			t.Fatalf("task %d: %d replicas", task, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("replica placement not deterministic")
			}
			if a[i] < 0 || a[i] >= 7 {
				t.Fatalf("replica %d out of range", a[i])
			}
		}
	}
	// Non-root stages have no DFS partitions.
	if got := c.replicaMachines(jr, 1, 0); got != nil {
		t.Errorf("non-root stage has replicas: %v", got)
	}
	// Single-machine cluster must not divide by zero.
	c1, _ := New(Config{Machines: 1, SlotsPerMachine: 2, Seed: 1})
	c1.Submit(JobConfig{Profile: p, Guarantee: 1, Tracked: true})
	if got := c1.replicaMachines(c1.jobs[0], 0, 3); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-machine replicas = %v", got)
	}
}
