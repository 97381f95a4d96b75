package cluster

import (
	"slices"
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

// TestFreeMachineForPrefersReplicas pins the placement rule: a root task
// takes the first of its replica machines with a free slot, in replica
// order; with every replica full, or for a task of a later stage, which has
// no replicas, the lowest free machine. On seven one-slot machines each
// root task's three replicas are distinct, and each case frees exactly the
// machines listed.
func TestFreeMachineForPrefersReplicas(t *testing.T) {
	const machines = 7
	c, _ := New(Config{Machines: machines, SlotsPerMachine: 1, Seed: 1})
	if _, err := c.Submit(JobConfig{Profile: localityJob(t, 20), Guarantee: 1}); err != nil {
		t.Fatal(err)
	}
	jr := c.jobs[0]
	free := func(ms ...int) {
		c.availBits.init(machines, false)
		for _, mi := range ms {
			c.availBits.set(mi)
		}
	}
	for task := range 20 {
		replicas := slices.Clone(c.replicaMachines(jr, 0, task))
		var others []int // the non-replica machines, ascending
		for mi := range machines {
			if !slices.Contains(replicas, mi) {
				others = append(others, mi)
			}
		}
		for k, r := range replicas {
			// Free replica r, every replica after it, and every other
			// machine: the root task must take r.
			free(append(slices.Clone(others), replicas[k:]...)...)
			if got := c.freeMachineFor(jr, 0, task); got != r {
				t.Errorf("task %d with replicas %v, first free replica %d: placed on machine %d", task, replicas, r, got)
			}
		}
		free(others...)
		if got := c.freeMachineFor(jr, 0, task); got != others[0] {
			t.Errorf("task %d with replicas %v all full: placed on machine %d, want lowest free %d", task, replicas, got, others[0])
		}
		free()
		if got := c.freeMachineFor(jr, 0, task); got != -1 {
			t.Errorf("task %d on a full cluster: placed on machine %d, want -1", task, got)
		}
	}
	// A non-root task has no replicas: it takes the lowest free machine,
	// whichever machines are free.
	for _, ms := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {3, 6}, {5}, {1, 2, 4}} {
		free(ms...)
		for task := range jr.job.Stages[1].Tasks {
			if got := c.freeMachineFor(jr, 1, task); got != ms[0] {
				t.Errorf("stage 1 task %d with machines %v free: placed on machine %d, want %d", task, ms, got, ms[0])
			}
		}
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
