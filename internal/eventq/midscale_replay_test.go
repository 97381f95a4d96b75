package eventq_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
)

// midScaleConfig is the cluster side of the mid-scale replay (1k machines ×
// 10 slots, MTBF 200h): the cosmos-scale shape of internal/cluster's
// benchmarks shrunk 10x along both axes.
func midScaleConfig() cluster.Config {
	return cluster.Config{
		Machines:        1000,
		SlotsPerMachine: 10,
		MachineMTBF:     200 * time.Hour,
		MachineRecovery: stats.Point{V: 2 * time.Minute},
		Seed:            1848,
	}
}

// midScaleProfiles are the replay's three jobs: two background jobs of 12k
// and 6k tasks and a 2k→400 map-reduce SLO job. They are built once so the
// *dag.Job identities stay stable across replays, as Engine reuse expects.
type midScaleProfiles struct {
	bg, bg2, fg *profile.Profile
}

func newMidScaleProfiles() *midScaleProfiles {
	bg := profile.MustNew(dag.NewBuilder("lc-bg").Stage("work", 12000).MustBuild(), []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(40*time.Second, 2*time.Minute),
			Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.01},
	})
	bg2 := profile.MustNew(dag.NewBuilder("lc-bg2").Stage("work", 6000).MustBuild(), []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(time.Minute, 3*time.Minute)},
	})
	fgJob := dag.NewBuilder("lc-fg").
		Stage("m", 2000).
		Stage("r", 400).
		Edge("m", "r", dag.AllToAll).
		MustBuild()
	fg := profile.MustNew(fgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(30*time.Second, 90*time.Second),
			Queue: stats.Exponential{MeanValue: time.Second}},
		{Exec: stats.LognormalFromMedian(time.Minute, 3*time.Minute)},
	})
	return &midScaleProfiles{bg: bg, bg2: bg2, fg: fg}
}

// replay runs the three jobs to completion, all tracked so every task
// attempt is simulated, and renders the results and utilization.
func (p *midScaleProfiles) replay(t *testing.T, c *cluster.Cluster) string {
	t.Helper()
	cfgs := []cluster.JobConfig{
		{Profile: p.bg, Guarantee: 5000, Tracked: true, NoTrace: true},
		{Profile: p.bg2, Guarantee: 2500, Weight: 2, Tracked: true, NoTrace: true, Start: 2 * time.Minute},
		{Profile: p.fg, Guarantee: 2000, Deadline: 4 * time.Hour, Tracked: true, NoTrace: true, Start: time.Minute},
	}
	var hs []*cluster.Handle
	for _, cfg := range cfgs {
		h, err := c.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	res := make([]cluster.Result, len(hs))
	for i, h := range hs {
		res[i] = h.Result()
	}
	return fmt.Sprintf("%+v util=%.17g", res, c.Utilization())
}

// TestMidScaleReplayMatchesGolden replays the mid-size cluster (1k
// machines, ~20k concurrent tasks, large enough that every scheduler path
// fires and the event queue holds thousands of events) and checks its
// results and utilization against the committed golden, which pins the
// cluster engine's and the event queue's output across commits. A
// deliberate behaviour change replaces the golden with the replay this test
// prints on a mismatch.
func TestMidScaleReplayMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size replay is ~100ms; skipped in -short")
	}
	c, err := cluster.New(midScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := newMidScaleProfiles().replay(t, c)
	const golden = "testdata/midscale_replay.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSuffix(string(want), "\n") {
		t.Errorf("replay differs from %s; this build replays:\n%s", golden, got)
	}
}

// TestMidScaleReplayReusedEngine checks Engine reuse at mid scale: two
// rounds on one reused engine, the second on its pooled state, must each
// match a fresh cluster's replay byte for byte.
func TestMidScaleReplayReusedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size replay is ~100ms per round; skipped in -short")
	}
	p := newMidScaleProfiles()
	fresh, err := cluster.New(midScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := p.replay(t, fresh)
	eng := cluster.NewEngine()
	for i := 0; i < 2; i++ {
		c, err := eng.Reset(midScaleConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := p.replay(t, c); got != want {
			t.Errorf("reused-engine replay %d diverges from a fresh cluster's:\n want: %.300s\n  got: %.300s",
				i, want, got)
		}
	}
}
