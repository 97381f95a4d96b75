package cluster_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/workload"
)

// TestSimMatchesLoneClusterJob pins the contract C(p, a) rests on (paper
// §4.1): the offline simulator predicts what the cluster does. A lone
// Tracked NoSpare job at Guarantee a, on a cluster with no machine
// failures, faults or drift, runs exactly as sim.Runner does at allocation
// a seeded with the job's derived seed: the same completion time and the
// same task events, attempt by attempt. Both simulators hold a dag.Tracker
// and draw every attempt through StageProfile.SampleAttempt, under one
// attempt cap.
func TestSimMatchesLoneClusterJob(t *testing.T) {
	jobs := workload.Jobs(1)
	runner := sim.NewRunner()
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		p := jobs[name]
		for _, a := range []int{5, 10, 20, 40} {
			seed := stats.DeriveSeed(1, "sim-equiv", name, fmt.Sprint(a))
			if err := simMatchesCluster(runner, p, a, cluster.Config{Machines: 2 * a, SlotsPerMachine: 5, Seed: seed}); err != nil {
				t.Errorf("job %s at a=%d: %v", name, a, err)
			}
		}
	}
}

// FuzzSimMatchesCluster checks the same contract on generated inputs:
// plans of one to four stages joined by one-to-one and all-to-all edges,
// profiles with heavy tails, task failures and queue delays, an allocation
// a, and a cluster of any shape with at least a slots.
func FuzzSimMatchesCluster(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("jockey"))
	f.Add([]byte{3, 1, 2, 9, 0, 7, 1, 0, 2, 3, 5, 1, 1, 2, 0, 4, 3, 1, 2, 2, 6, 0, 1})
	f.Add([]byte{255, 254, 3, 23, 2, 3, 3, 15, 2, 1, 3, 0, 2, 2, 11, 1, 0, 3, 1, 19, 0, 1, 3, 2, 7})
	runner := sim.NewRunner()
	f.Fuzz(func(t *testing.T, data []byte) {
		intn := fuzzChoices(data)
		cfg := cluster.Config{Seed: uint64(intn(256))<<8 | uint64(intn(256))}
		a := 1 + intn(24)
		cfg.SlotsPerMachine = 1 + intn(5)
		cfg.Machines = (a+cfg.SlotsPerMachine-1)/cfg.SlotsPerMachine + intn(4)
		p := genPlanProfile(t, intn)
		if err := simMatchesCluster(runner, p, a, cfg); err != nil {
			t.Fatalf("%s at a=%d on %d×%d slots: %v", p.Job.Name, a, cfg.Machines, cfg.SlotsPerMachine, err)
		}
	})
}

// simMatchesCluster runs p as a lone Tracked NoSpare job at Guarantee a on
// a cluster of cfg, and through sim.Runner at allocation a seeded with the
// job's derived seed, and reports the first difference.
func simMatchesCluster(runner *sim.Runner, p *profile.Profile, a int, cfg cluster.Config) error {
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	h, err := c.Submit(cluster.JobConfig{Profile: p, Guarantee: a, Tracked: true, NoSpare: true})
	if err != nil {
		return err
	}
	if err := c.Run(); err != nil {
		return err
	}
	want := h.Result()
	got, err := runner.Run(sim.Config{Profile: p, Alloc: a, Seed: cluster.JobSeed(cfg.Seed, 0)})
	if err != nil {
		return err
	}
	if got.Completion != want.Completion {
		return fmt.Errorf("sim completes at %v, cluster at %v", got.Completion, want.Completion)
	}
	if !reflect.DeepEqual(got.Events, want.Trace.Events) {
		for i := range min(len(got.Events), len(want.Trace.Events)) {
			if got.Events[i] != want.Trace.Events[i] {
				return fmt.Errorf("task event %d: sim %+v, cluster %+v", i, got.Events[i], want.Trace.Events[i])
			}
		}
		return fmt.Errorf("sim records %d task events, cluster %d", len(got.Events), len(want.Trace.Events))
	}
	return nil
}

// fuzzChoices reads a fuzz input as a stream of small choices, intn(n) in
// [0, n); an exhausted input reads as zeros, so every input is a case.
func fuzzChoices(data []byte) func(n int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v % n
	}
}

// genPlanProfile builds a plan of one to four stages of up to 24 tasks.
// Every stage after the first reads the stage before it, and may also
// read an earlier one (a join); each edge is one-to-one or all-to-all.
func genPlanProfile(t *testing.T, intn func(int) int) *profile.Profile {
	b := dag.NewBuilder("fuzz")
	stages := 1 + intn(4)
	var sps []profile.StageProfile
	for s := 0; s < stages; s++ {
		b.Stage(fmt.Sprintf("s%d", s), 1+intn(24))
		for _, from := range []int{s - 1, s - 2 - intn(2)} {
			if from < 0 || (from < s-1 && intn(2) == 0) {
				continue
			}
			kind := dag.OneToOne
			if intn(2) == 0 {
				kind = dag.AllToAll
			}
			b.Edge(fmt.Sprintf("s%d", from), fmt.Sprintf("s%d", s), kind)
		}
		median := time.Second + time.Duration(intn(6))*10*time.Second
		sp := profile.StageProfile{FailureProb: float64(intn(4)) * 0.1}
		switch intn(3) {
		case 0:
			sp.Exec = stats.Point{V: median}
		case 1:
			sp.Exec = stats.LognormalFromMedian(median, median*time.Duration(2+intn(3)))
		default:
			sp.Exec = stats.Truncated{Base: stats.LognormalFromMedian(median, 10*median), Max: 10 * time.Minute}
		}
		if intn(2) == 0 {
			sp.Queue = stats.Exponential{MeanValue: time.Duration(1+intn(4)) * time.Second}
		}
		sps = append(sps, sp)
	}
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.New(job, sps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
