package cluster

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
)

// largeScale sizes a Cosmos-like replay: thousands of machines, a hundred
// thousand concurrent tasks, a mix of big background work and one tracked
// SLO job. The same shape is used at two sizes: cosmosScale is the paper's
// regime (ROADMAP item 3), midScale is small enough that pre-optimization
// engines can replay it in seconds, so trend lines stay comparable.
type largeScale struct {
	machines, slots         int
	bgTasks, bg2Tasks       int
	fgMap, fgReduce         int
	bgGuar, bg2Guar, fgGuar int
	mtbf                    time.Duration
}

// cosmosScale: 10k machines × 10 slots = 100k tokens; guarantees alone pin
// 95k tasks and spare redistribution fills the rest, so the replay sustains
// ≥1e5 concurrent tasks (the benchmark reports the measured peak).
var cosmosScale = largeScale{
	machines: 10000, slots: 10,
	bgTasks: 120000, bg2Tasks: 60000,
	fgMap: 20000, fgReduce: 4000,
	bgGuar: 50000, bg2Guar: 25000, fgGuar: 20000,
	mtbf: 2000 * time.Hour,
}

// midScale is cosmosScale shrunk 10x along both axes.
var midScale = largeScale{
	machines: 1000, slots: 10,
	fgMap: 2000, fgReduce: 400,
	bgTasks: 12000, bg2Tasks: 6000,
	bgGuar: 5000, bg2Guar: 2500, fgGuar: 2000,
	mtbf: 200 * time.Hour,
}

// hugeScale is the arrival-burst regime: 25k machines × 20 slots = 5e5
// tokens, with enough queued background work that the cluster stays
// saturated — ≥5e5 concurrent tasks once the burst lands. One scheduling
// pass pushes up to 5e5 task-end events, so this scale measures the event
// queue's promotion and ring growth under an admission wave.
var hugeScale = largeScale{
	machines: 25000, slots: 20,
	fgMap: 100000, fgReduce: 20000,
	bgTasks: 600000, bg2Tasks: 300000,
	bgGuar: 250000, bg2Guar: 125000, fgGuar: 100000,
	mtbf: 5000 * time.Hour,
}

func (ls largeScale) config() Config {
	return Config{
		Machines:        ls.machines,
		SlotsPerMachine: ls.slots,
		MachineMTBF:     ls.mtbf,
		MachineRecovery: stats.Point{V: 2 * time.Minute},
		Seed:            1848,
	}
}

// largeProfiles builds the three job profiles once; the *dag.Job identities
// are stable across runs so Engine arena pooling engages exactly as it does
// in the experiment grids.
type largeProfiles struct {
	bg, bg2, fg *profile.Profile
}

func newLargeProfiles(tb testing.TB, ls largeScale) *largeProfiles {
	tb.Helper()
	bgJob := dag.NewBuilder("lc-bg").Stage("work", ls.bgTasks).MustBuild()
	bg := profile.MustNew(bgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(40*time.Second, 2*time.Minute),
			Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.01},
	})
	bg2Job := dag.NewBuilder("lc-bg2").Stage("work", ls.bg2Tasks).MustBuild()
	bg2 := profile.MustNew(bg2Job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(time.Minute, 3*time.Minute)},
	})
	fgJob := dag.NewBuilder("lc-fg").
		Stage("m", ls.fgMap).
		Stage("r", ls.fgReduce).
		Edge("m", "r", dag.AllToAll).
		MustBuild()
	fg := profile.MustNew(fgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(30*time.Second, 90*time.Second),
			Queue: stats.Exponential{MeanValue: time.Second}},
		{Exec: stats.LognormalFromMedian(time.Minute, 3*time.Minute)},
	})
	return &largeProfiles{bg: bg, bg2: bg2, fg: fg}
}

// run replays the workload to completion: all three jobs are tracked (the
// background jobs with NoTrace) so every task attempt is simulated.
func (p *largeProfiles) run(tb testing.TB, c *Cluster, ls largeScale) []Result {
	tb.Helper()
	submit := func(cfg JobConfig) *Handle {
		h, err := c.Submit(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return h
	}
	hs := []*Handle{
		submit(JobConfig{Profile: p.bg, Guarantee: ls.bgGuar, Tracked: true, NoTrace: true}),
		submit(JobConfig{Profile: p.bg2, Guarantee: ls.bg2Guar, Weight: 2, Tracked: true, NoTrace: true,
			Start: 2 * time.Minute}),
		submit(JobConfig{Profile: p.fg, Guarantee: ls.fgGuar, Deadline: 4 * time.Hour,
			Tracked: true, NoTrace: true, Start: time.Minute}),
	}
	if err := c.Run(); err != nil {
		tb.Fatal(err)
	}
	out := make([]Result, len(hs))
	for i, h := range hs {
		out[i] = h.Result()
	}
	return out
}

func benchLargeCluster(b *testing.B, ls largeScale) {
	withoutPassCheck(b)
	p := newLargeProfiles(b, ls)
	cfg := ls.config()
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := eng.Reset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.run(b, c, ls)
	}
}

// BenchmarkEngineLargeCluster is the cosmos-scale acceptance benchmark:
// 10k machines, ≥1e5 concurrent tasks per replay (ROADMAP item 3).
func BenchmarkEngineLargeCluster(b *testing.B) { benchLargeCluster(b, cosmosScale) }

// BenchmarkEngineMidCluster is the same workload at 1/10 scale, cheap
// enough to compare engines before and after the scale work.
func BenchmarkEngineMidCluster(b *testing.B) { benchLargeCluster(b, midScale) }

// BenchmarkEngineHugeCluster is the 10⁶-task acceptance benchmark: 5e5
// slots stay saturated (≥5e5 concurrent tasks), so every dispatch wave is
// an arrival burst and the event queue holds ≥5e5 in-flight task ends.
func BenchmarkEngineHugeCluster(b *testing.B) { benchLargeCluster(b, hugeScale) }
