package cluster

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// TestConservationProperty checks the fundamental bookkeeping invariants of
// the cluster under randomized contention, failures and evictions:
//   - every task of a tracked job completes exactly once (one successful
//     attempt per task);
//   - attempts of the same task are strictly ordered and never overlap;
//   - barrier semantics hold (no consumer starts before the producer stage
//     finishes).
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, rawTasks uint8, rawG uint8) bool {
		mapTasks := 10 + int(rawTasks)%60
		guarantee := 1 + int(rawG)%10
		job := dag.NewBuilder("prop").
			Stage("map", mapTasks).
			Stage("reduce", 1+mapTasks/8).
			Edge("map", "reduce", dag.AllToAll).
			MustBuild()
		p := profile.MustNew(job, []profile.StageProfile{
			{Exec: stats.LognormalFromMedian(4*time.Second, 12*time.Second),
				Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.08},
			{Exec: stats.LognormalFromMedian(8*time.Second, 20*time.Second)},
		})
		c, err := New(Config{
			Machines:        6,
			SlotsPerMachine: 3,
			MachineMTBF:     4 * time.Minute, // aggressive failure injection
			MachineRecovery: stats.Point{V: time.Minute},
			Seed:            seed,
		})
		if err != nil {
			return false
		}
		bg := profile.MustNew(dag.NewBuilder("bg").Stage("work", 100).MustBuild(),
			[]profile.StageProfile{{Exec: stats.Point{V: 20 * time.Second}}})
		if _, err := c.Submit(JobConfig{Profile: bg, Guarantee: 2}); err != nil {
			return false
		}
		h, err := c.Submit(JobConfig{Profile: p, Guarantee: guarantee,
			Deadline: time.Hour, Tracked: true, Start: 30 * time.Second})
		if err != nil {
			return false
		}
		if err := c.Run(); err != nil {
			return false
		}
		tr := h.Result().Trace

		// One success per task.
		succ := map[[2]int]int{}
		for _, e := range tr.Events {
			if !e.Failed {
				succ[[2]int{e.Stage, e.Task}]++
			}
		}
		if len(succ) != job.TotalTasks() {
			return false
		}
		for _, n := range succ {
			if n != 1 {
				return false
			}
		}
		// Attempts ordered, non-overlapping, with sane timestamps.
		lastEnd := map[[2]int]time.Duration{}
		lastAttempt := map[[2]int]int{}
		for _, e := range tr.Events {
			key := [2]int{e.Stage, e.Task}
			if e.Queued < 0 || e.Dispatched < e.Queued || e.Started < e.Dispatched || e.Ended < e.Started {
				return false
			}
			if prev, ok := lastEnd[key]; ok {
				if e.Started < prev || e.Attempt <= lastAttempt[key] {
					return false
				}
			}
			lastEnd[key] = e.Ended
			lastAttempt[key] = e.Attempt
		}
		// Barrier: no reduce attempt starts before the map stage completes.
		var mapDone time.Duration
		mapSucc := 0
		for _, e := range tr.Events {
			if e.Stage == 0 && !e.Failed {
				mapSucc++
				if e.Ended > mapDone && mapSucc <= job.Stages[0].Tasks {
					mapDone = e.Ended
				}
			}
		}
		for _, e := range tr.Events {
			if e.Stage == 1 && e.Dispatched < mapDone {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCombinedFaultInvariants piles every disruption the simulator can
// produce onto one run — random machine failures, a rack outage, a token
// contention window, mid-run runtime drift and deadline changes — and
// checks that the bookkeeping invariants survive and the run
// replays bit-identically.
func TestCombinedFaultInvariants(t *testing.T) {
	build := func() (*Cluster, *Handle) {
		t.Helper()
		c, err := New(Config{
			Machines:        8,
			SlotsPerMachine: 3,
			MachineMTBF:     3 * time.Minute,
			MachineRecovery: stats.Point{V: time.Minute},
			Seed:            42,
			RackOutages: []RackOutage{
				{At: 40 * time.Second, FirstMachine: 0, Machines: 3, Duration: 90 * time.Second},
				{At: 70 * time.Second, FirstMachine: 2, Machines: 2, Duration: time.Minute},
			},
			Contention: []ContentionWindow{
				{From: 50 * time.Second, To: 3 * time.Minute, Frac: 0.5},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		job := dag.NewBuilder("chaos").
			Stage("map", 40).
			Stage("reduce", 6).
			Edge("map", "reduce", dag.AllToAll).
			MustBuild()
		p := profile.MustNew(job, []profile.StageProfile{
			{Exec: stats.LognormalFromMedian(8*time.Second, 25*time.Second),
				Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.05},
			{Exec: stats.LognormalFromMedian(15*time.Second, 40*time.Second)},
		})
		bg := profile.MustNew(dag.NewBuilder("bg").Stage("work", 60).MustBuild(),
			[]profile.StageProfile{{Exec: stats.Point{V: 20 * time.Second}}})
		if _, err := c.Submit(JobConfig{Profile: bg, Guarantee: 4}); err != nil {
			t.Fatal(err)
		}
		h, err := c.Submit(JobConfig{
			Profile: p, Guarantee: 8, Deadline: 20 * time.Minute,
			Tracked: true, Start: 20 * time.Second,
			Drifts: []StageDrift{
				{At: 30 * time.Second, Stage: 0, Factor: 1.7},
				{At: time.Minute, Stage: -1, Factor: 1.3},
			},
			DeadlineChanges: []DeadlineChange{
				{At: 90 * time.Second, Deadline: 30 * time.Minute},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, h
	}
	run := func() Result {
		c, h := build()
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return h.Result()
	}
	r := run()
	tr := r.Trace
	if tr == nil {
		t.Fatal("no trace")
	}
	// No lost task, no double completion.
	succ := map[[2]int]int{}
	for _, e := range tr.Events {
		if !e.Failed {
			succ[[2]int{e.Stage, e.Task}]++
		}
	}
	if len(succ) != 46 {
		t.Fatalf("%d tasks completed, want 46", len(succ))
	}
	for key, n := range succ {
		if n != 1 {
			t.Fatalf("task %v completed %d times", key, n)
		}
	}
	// Timestamps sane under every fault class at once; a task runs one
	// attempt at a time, so its attempts are numbered 0, 1, 2, ... in the
	// order they end, and each is dispatched no earlier than the one before
	// it ended.
	type prevAttempt struct {
		n     int
		ended time.Duration
	}
	prev := map[[2]int]prevAttempt{}
	for _, e := range tr.Events {
		if e.Queued < 0 || e.Dispatched < e.Queued || e.Started < e.Dispatched || e.Ended < e.Started {
			t.Fatalf("bad timestamps: %+v", e)
		}
		key := [2]int{e.Stage, e.Task}
		p := prev[key]
		if e.Attempt != p.n || e.Dispatched < p.ended {
			t.Fatalf("task %v attempt %d dispatched at %v; want attempt %d dispatched at or after %v",
				key, e.Attempt, e.Dispatched, p.n, p.ended)
		}
		prev[key] = prevAttempt{n: e.Attempt + 1, ended: e.Ended}
	}
	// Barrier: reduces only dispatch after all 40 maps are done.
	var mapDone time.Duration
	for _, e := range tr.Events {
		if e.Stage == 0 && !e.Failed && e.Ended > mapDone {
			mapDone = e.Ended
		}
	}
	for _, e := range tr.Events {
		if e.Stage == 1 && e.Dispatched < mapDone {
			t.Fatalf("reduce dispatched at %v before map stage finished at %v", e.Dispatched, mapDone)
		}
	}
	// Token conservation: the allocation integral must charge the nominal
	// guarantee trajectory (it is never negative and at least covers the
	// successful guaranteed work recorded).
	if r.AllocTokenSeconds <= 0 {
		t.Fatalf("degenerate accounting: alloc=%v", r.AllocTokenSeconds)
	}
	// The perturbations actually bit: evictions from the outages.
	if r.Evictions == 0 {
		t.Error("combined-fault run recorded no evictions")
	}
	// Determinism: an identical second run replays bit-identically.
	r2 := run()
	if r.Completion != r2.Completion || r.Evictions != r2.Evictions ||
		r.AllocTokenSeconds != r2.AllocTokenSeconds {
		t.Fatalf("combined-fault run not deterministic:\n%+v\n%+v", r, r2)
	}
	if len(tr.Events) != len(r2.Trace.Events) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(tr.Events), len(r2.Trace.Events))
	}
	for i := range tr.Events {
		if tr.Events[i] != r2.Trace.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, tr.Events[i], r2.Trace.Events[i])
		}
	}
}

// maxConcurrent returns the largest number of attempts of tr that run at
// once. An attempt that ends when another starts does not overlap it.
func maxConcurrent(tr *trace.JobTrace) int {
	type point struct {
		at    time.Duration
		delta int
	}
	pts := make([]point, 0, 2*len(tr.Events))
	for _, e := range tr.Events {
		pts = append(pts, point{e.Started, +1}, point{e.Ended, -1})
	}
	slices.SortFunc(pts, func(a, b point) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return a.delta - b.delta // ends before starts at a tie
	})
	cur, best := 0, 0
	for _, p := range pts {
		cur += p.delta
		best = max(best, cur)
	}
	return best
}

func TestNoSpareNeverExceedsGuarantee(t *testing.T) {
	// A NoSpare job alone on an idle cluster must never run more tasks than
	// its guarantee.
	job := dag.NewBuilder("cap").Stage("work", 40).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
	})
	c, _ := New(Config{Machines: 10, SlotsPerMachine: 4, Seed: 1})
	h, err := c.Submit(JobConfig{Profile: p, Guarantee: 6, Tracked: true, NoSpare: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := maxConcurrent(h.Result().Trace); got > 6 {
		t.Errorf("NoSpare job ran %d tasks concurrently, guarantee 6", got)
	}
	// 40 tasks / 6 tokens = 7 waves of 10s.
	if got := h.Result().Completion; got != 70*time.Second {
		t.Errorf("completion = %v, want 70s", got)
	}
}
