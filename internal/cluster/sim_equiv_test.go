package cluster_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/workload"
)

// TestSimMatchesLoneClusterJob pins the contract C(p, a) rests on (paper
// §4.1): the offline simulator predicts what the cluster does. A lone
// Tracked NoSpare job at Guarantee a, on a cluster with no machine
// failures, faults, drift or speculation, runs exactly as sim.Runner does
// at allocation a seeded with the job's derived seed: the same completion
// time and the same task events, attempt by attempt. Both simulators hold
// a dag.Tracker and draw every attempt through StageProfile.SampleAttempt,
// under one attempt cap.
func TestSimMatchesLoneClusterJob(t *testing.T) {
	jobs := workload.Jobs(1)
	runner := sim.NewRunner()
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		p := jobs[name]
		for _, a := range []int{5, 10, 20, 40} {
			seed := stats.DeriveSeed(1, "sim-equiv", name, fmt.Sprint(a))
			c, err := cluster.New(cluster.Config{Machines: 2 * a, SlotsPerMachine: 5, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.Submit(cluster.JobConfig{Profile: p, Guarantee: a, Tracked: true, NoSpare: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			want := h.Result()
			got, err := runner.Run(sim.Config{Profile: p, Alloc: a, Seed: stats.DeriveSeed(seed, "job", "0")})
			if err != nil {
				t.Fatal(err)
			}
			if got.Completion != want.Completion {
				t.Errorf("job %s at a=%d: sim completes at %v, cluster at %v", name, a, got.Completion, want.Completion)
			}
			if !reflect.DeepEqual(got.Events, want.Trace.Events) {
				t.Errorf("job %s at a=%d: sim's %d task events differ from the cluster's %d",
					name, a, len(got.Events), len(want.Trace.Events))
			}
		}
	}
}
