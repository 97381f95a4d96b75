package cluster

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

// fixedJob: 8 x 10s map -> barrier -> 2 x 20s reduce, deterministic.
func fixedJob(t testing.TB, name string) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder(name).
		Stage("map", 8).
		Stage("reduce", 2).
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 20 * time.Second}},
	})
}

// bigJob: a long single-stage batch for background pressure.
func bigJob(t testing.TB, name string, tasks int, dur time.Duration) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder(name).Stage("work", tasks).MustBuild()
	return profile.MustNew(job, []profile.StageProfile{{Exec: stats.Point{V: dur}}})
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Machines: -1}); err == nil {
		t.Error("negative machines must fail")
	}
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The default is 25 machines of 4 slots, all up at the start.
	if c.Capacity() != 100 {
		t.Errorf("default capacity = %d, want 100", c.Capacity())
	}
}

// TestEventIs24Bytes pins the packed event layout: the queue moves every
// event by value at every sift step of a push or a pop.
func TestEventIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 24", got)
	}
}

// TestStageTooLargeRejected: events and the task store carry int32 task
// indices, so Submit refuses a stage wider than that with an error naming
// the job and the stage, and the cluster keeps working.
func TestStageTooLargeRejected(t *testing.T) {
	job := dag.NewBuilder("huge").Stage("tiny", 2).Stage("wide", math.MaxInt32+1).
		Edge("tiny", "wide", dag.AllToAll).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: time.Second}},
		{Exec: stats.Point{V: time.Second}},
	})
	c, err := New(Config{Machines: 2, SlotsPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(JobConfig{Profile: p, Guarantee: 2, Tracked: true})
	var tooLarge *stageTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("Submit error = %v, want a stageTooLargeError", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"huge"`) || !strings.Contains(msg, `"wide"`) {
		t.Errorf("error %q does not name the job and the stage", msg)
	}
	h, err := c.Submit(JobConfig{Profile: fixedJob(t, "ok"), Guarantee: 2, Tracked: true})
	if err != nil {
		t.Fatalf("valid submit after a rejected plan: %v", err)
	}
	if err := c.Run(); err != nil || !h.Done() {
		t.Errorf("valid run after a rejected plan: done %v, err %v", h.Done(), err)
	}
}

// TestPlanTooLargeRejected: the dependency tracker's counters are int32, so
// Submit refuses a plan with more tasks than that, each stage within int32,
// with dag's typed error naming the job, and the cluster keeps working.
func TestPlanTooLargeRejected(t *testing.T) {
	job := dag.NewBuilder("huge").Stage("a", math.MaxInt32).Stage("b", 2).
		Edge("a", "b", dag.AllToAll).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: time.Second}},
		{Exec: stats.Point{V: time.Second}},
	})
	c, err := New(Config{Machines: 2, SlotsPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(JobConfig{Profile: p, Guarantee: 2, Tracked: true})
	var tooLarge *dag.PlanTooLargeError
	if !errors.As(err, &tooLarge) || !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("Submit error = %v, want a dag.PlanTooLargeError naming the job", err)
	}
	h, err := c.Submit(JobConfig{Profile: fixedJob(t, "ok"), Guarantee: 2, Tracked: true})
	if err != nil {
		t.Fatalf("valid submit after a rejected plan: %v", err)
	}
	if err := c.Run(); err != nil || !h.Done() {
		t.Errorf("valid run after a rejected plan: done %v, err %v", h.Done(), err)
	}
}

// TestTooManyMachinesRejected: machine indices, slot ids and per-machine
// counters are int32 too, so New and Engine.Reset refuse a cluster with
// more machines or more slots in all than that, before sizing any machine
// array, with an error naming both sizes. Half of math.MaxInt slots on each
// of 4 machines overflows int, so the check must not multiply.
func TestTooManyMachinesRejected(t *testing.T) {
	for _, cfg := range []Config{
		{Machines: math.MaxInt32 + 1, SlotsPerMachine: 1},
		{Machines: 4, SlotsPerMachine: math.MaxInt / 2},
		{Machines: 1 << 16, SlotsPerMachine: 1 << 15},
	} {
		want := fmt.Sprintf("%d machines × %d slots", cfg.Machines, cfg.SlotsPerMachine)
		var tooLarge *capacityTooLargeError
		if _, err := New(cfg); !errors.As(err, &tooLarge) || !strings.Contains(err.Error(), want) {
			t.Errorf("%d×%d: New error = %v, want a capacityTooLargeError naming %q", cfg.Machines, cfg.SlotsPerMachine, err, want)
		}
		if _, err := NewEngine().Reset(cfg); !errors.As(err, &tooLarge) || !strings.Contains(err.Error(), want) {
			t.Errorf("%d×%d: Engine.Reset error = %v, want a capacityTooLargeError naming %q", cfg.Machines, cfg.SlotsPerMachine, err, want)
		}
	}
	// One slot per machine fewer fits.
	if _, err := New(Config{Machines: 1 << 16, SlotsPerMachine: 1<<15 - 1}); err != nil {
		t.Errorf("65536×32767 cluster rejected: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	c, _ := New(Config{})
	if _, err := c.Submit(JobConfig{}); err == nil {
		t.Error("nil profile must fail")
	}
	p := fixedJob(t, "x")
	if _, err := c.Submit(JobConfig{Profile: p, Guarantee: -1}); err == nil {
		t.Error("negative guarantee must fail")
	}
	if _, err := c.Submit(JobConfig{Profile: p}); err == nil {
		t.Error("no policy and no guarantee must fail")
	}
	if _, err := c.Submit(JobConfig{Profile: p, Guarantee: 1, DeadlineChanges: []DeadlineChange{
		{At: time.Minute, Deadline: time.Hour}, {At: time.Second, Deadline: time.Hour},
	}}); err == nil {
		t.Error("unsorted deadline changes must fail")
	}
}

func TestSingleJobFixedGuarantee(t *testing.T) {
	c, _ := New(Config{Machines: 4, SlotsPerMachine: 2, Seed: 1})
	p := fixedJob(t, "solo")
	h, err := c.Submit(JobConfig{Profile: p, Guarantee: 8, Deadline: 2 * time.Minute, Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("job not done")
	}
	r := h.Result()
	// Alone with 8 tokens on an 8-slot cluster: 10s map wave + 20s reduce.
	if r.Completion != 30*time.Second {
		t.Errorf("completion = %v, want 30s", r.Completion)
	}
	if !r.Met {
		t.Error("deadline should be met")
	}
	if r.Trace == nil || len(r.Trace.Events) != 10 {
		t.Fatalf("trace missing or wrong: %+v", r.Trace)
	}
	if r.Evictions != 0 {
		t.Errorf("evictions = %d", r.Evictions)
	}
	if h.Name() != "solo" {
		t.Errorf("name = %q", h.Name())
	}
}

func TestSpareCapacitySpeedsUpJob(t *testing.T) {
	// Guarantee 2 tokens, but the cluster is otherwise idle: the
	// work-conserving scheduler should hand out spare tokens and finish the
	// job much faster than guaranteed-only would (50s vs 30s).
	c, _ := New(Config{Machines: 4, SlotsPerMachine: 2, Seed: 1})
	p := fixedJob(t, "sparey")
	h, _ := c.Submit(JobConfig{Profile: p, Guarantee: 2, Deadline: 2 * time.Minute, Tracked: true})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	if r.Completion != 30*time.Second {
		t.Errorf("completion = %v, want 30s with spare capacity", r.Completion)
	}
	if r.SpareTaskFraction == 0 {
		t.Error("some tasks should have run on spare tokens")
	}
}

func TestGuaranteedDemandEvictsSpare(t *testing.T) {
	// A background job floods the 8-slot cluster on spare tokens (guarantee
	// 1); then an SLO job with guarantee 6 arrives and must get its 6 slots
	// by evicting spare tasks.
	c, _ := New(Config{Machines: 4, SlotsPerMachine: 2, Seed: 1})
	bg := bigJob(t, "bg", 200, 100*time.Second)
	_, err := c.Submit(JobConfig{Profile: bg, Guarantee: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := fixedJob(t, "slo")
	h, err := c.Submit(JobConfig{Profile: p, Guarantee: 6, Deadline: 3 * time.Minute,
		Tracked: true, Start: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	// With 6 guaranteed tokens (and up to 2 leftover slots contested):
	// map in ceil(8/6..8) waves (~20s) + reduce 20s. Must be well under the
	// 100s the background tasks occupy slots for.
	if r.Completion > 70*time.Second {
		t.Errorf("SLO job starved: completion = %v", r.Completion)
	}
	if !r.Met {
		t.Error("SLO missed despite guaranteed tokens")
	}
}

func TestEvictionKillsYoungestSpareWork(t *testing.T) {
	// 5-slot machine: the background job (guarantee 1) fills all 5 slots,
	// 4 of them on spare tokens. The arriving SLO job (guarantee 4) must
	// reclaim exactly those 4 spare slots instantly.
	c, _ := New(Config{Machines: 1, SlotsPerMachine: 5, Seed: 1})
	bg := bigJob(t, "bg", 50, 60*time.Second)
	hbg, _ := c.Submit(JobConfig{Profile: bg, Guarantee: 1})
	p := bigJob(t, "slo", 4, 10*time.Second)
	h, _ := c.Submit(JobConfig{Profile: p, Guarantee: 4, Deadline: time.Minute,
		Tracked: true, Start: 30 * time.Second})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := h.Result().Completion; got != 10*time.Second {
		t.Errorf("SLO completion = %v, want 10s (immediate eviction of 4 spare tasks)", got)
	}
	_ = hbg
}

func TestJockeyPolicyMeetsDeadlineOnCluster(t *testing.T) {
	p := fixedJob(t, "controlled")
	pred := model.NewAmdahl(p)
	pol, err := control.NewController(control.Config{
		Predictor:  pred,
		Utility:    utility.Deadline(90 * time.Second),
		Candidates: SLODefaults(8),
		Slack:      1.1,
		Hysteresis: 1.0,
		DeadZone:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(Config{Machines: 4, SlotsPerMachine: 2, Seed: 2})
	h, err := c.Submit(JobConfig{
		Profile:       p,
		Policy:        pol,
		Deadline:      90 * time.Second,
		ControlPeriod: 10 * time.Second,
		Tracked:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	if !r.Met {
		t.Errorf("missed deadline: completion %v", r.Completion)
	}
	if len(r.Trace.Timeline) == 0 {
		t.Error("policy never ran: no allocation timeline recorded")
	}
	if r.AllocTokenSeconds <= 0 {
		t.Error("no allocation accounted")
	}
}

func TestDeadlineChangeTriggersAdaptation(t *testing.T) {
	// A slow 40-task job under Jockey control; halfway through, the
	// deadline is cut, and the allocation must rise.
	job := dag.NewBuilder("dc").Stage("work", 40).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 30 * time.Second}},
	})
	pred := model.NewAmdahl(p)
	pol, err := control.NewController(control.Config{
		Predictor:  pred,
		Utility:    utility.Deadline(30 * time.Minute),
		Candidates: SLODefaults(6),
		Slack:      1.1,
		Hysteresis: 1.0,
		DeadZone:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(Config{Machines: 10, SlotsPerMachine: 4, Seed: 3})
	// Saturate most capacity with a long background job so the controlled
	// job's pace is governed by its guarantee; 6 tokens of headroom remain
	// for the SLO job, so its candidate grid stops there (admission
	// control's role in the real system).
	bg := bigJob(t, "bg", 5000, time.Minute)
	if _, err := c.Submit(JobConfig{Profile: bg, Guarantee: 34}); err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(JobConfig{
		Profile:       p,
		Policy:        pol,
		Deadline:      30 * time.Minute,
		ControlPeriod: 30 * time.Second,
		Tracked:       true,
		DeadlineChanges: []DeadlineChange{
			{At: 2 * time.Minute, Deadline: 7 * time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	if r.Deadline != 7*time.Minute {
		t.Errorf("final deadline = %v", r.Deadline)
	}
	if !r.Met {
		t.Errorf("missed tightened deadline: %v", r.Completion)
	}
	var before, after int
	for _, pt := range r.Trace.Timeline {
		if pt.T < 2*time.Minute && pt.Granted > before {
			before = pt.Granted
		}
		if pt.T >= 2*time.Minute && pt.Granted > after {
			after = pt.Granted
		}
	}
	if after <= before {
		t.Errorf("allocation did not rise after deadline cut: before max %d, after max %d", before, after)
	}
}

func TestMachineFailuresKillTasksAndRecover(t *testing.T) {
	c, _ := New(Config{
		Machines:        5,
		SlotsPerMachine: 2,
		MachineMTBF:     2 * time.Minute, // aggressive: many failures
		MachineRecovery: stats.Point{V: 30 * time.Second},
		Seed:            7,
	})
	p := bigJob(t, "victim", 60, 20*time.Second)
	h, _ := c.Submit(JobConfig{Profile: p, Guarantee: 10, Deadline: time.Hour, Tracked: true})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	failed := 0
	for _, e := range r.Trace.Events {
		if e.Failed {
			failed++
		}
	}
	if failed == 0 {
		t.Error("expected machine failures to kill some tasks")
	}
	// All 60 tasks must still complete.
	succ := 0
	for _, e := range r.Trace.Events {
		if !e.Failed {
			succ++
		}
	}
	if succ != 60 {
		t.Errorf("successes = %d, want 60", succ)
	}
}

func TestUtilizationTracking(t *testing.T) {
	c, _ := New(Config{Machines: 2, SlotsPerMachine: 2, Seed: 1})
	p := bigJob(t, "u", 16, 10*time.Second)
	c.Submit(JobConfig{Profile: p, Guarantee: 4, Tracked: true})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// 16 tasks x 10s on 4 slots = 40s fully busy.
	if u := c.Utilization(); u < 0.95 {
		t.Errorf("utilization = %v, want ~1.0", u)
	}
	if c.Now() != 40*time.Second {
		t.Errorf("Now = %v, want 40s", c.Now())
	}
}

func TestRunErrorsWhenQueueDrains(t *testing.T) {
	c, _ := New(Config{})
	// Tracked job scheduled but tracked count manipulated via an
	// impossible plan is hard; instead: no jobs but tracked forced by a job
	// that never arrives is impossible through the API. The drained-queue
	// error is still reachable if Run is called after completion with
	// tracked incremented artificially — instead verify normal empty run.
	if err := c.Run(); err != nil {
		t.Errorf("empty cluster Run should be a no-op, got %v", err)
	}
}

func TestMaxSimTimeGuard(t *testing.T) {
	c, _ := New(Config{Machines: 1, SlotsPerMachine: 1, Seed: 1})
	p := bigJob(t, "long", 2, 150*time.Hour) // needs 300 hours on 1 slot
	c.Submit(JobConfig{Profile: p, Guarantee: 1, Tracked: true})
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "max simulated time") {
		t.Errorf("expected max-sim-time error, got %v", err)
	}
}

func TestFairSharingBetweenEqualJobs(t *testing.T) {
	// Two identical background jobs with equal guarantees on a cluster with
	// exactly enough capacity: both should finish at the same time.
	c, _ := New(Config{Machines: 2, SlotsPerMachine: 4, Seed: 1})
	a, _ := c.Submit(JobConfig{Profile: bigJob(t, "a", 40, 10*time.Second), Guarantee: 4, Tracked: true})
	b, _ := c.Submit(JobConfig{Profile: bigJob(t, "b", 40, 10*time.Second), Guarantee: 4, Tracked: true})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Result(), b.Result()
	if ra.Completion != rb.Completion {
		t.Errorf("equal jobs diverged: %v vs %v", ra.Completion, rb.Completion)
	}
	if ra.Completion != 100*time.Second {
		t.Errorf("completion = %v, want 100s (10 waves of 4)", ra.Completion)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, int) {
		c, _ := New(Config{Machines: 5, SlotsPerMachine: 2,
			MachineMTBF: 5 * time.Minute, Seed: 11})
		bg := bigJob(t, "bg", 100, 30*time.Second)
		c.Submit(JobConfig{Profile: bg, Guarantee: 3})
		job := dag.NewBuilder("fg").
			Stage("m", 30).
			Stage("r", 6).
			Edge("m", "r", dag.AllToAll).
			MustBuild()
		p := profile.MustNew(job, []profile.StageProfile{
			{Exec: stats.LognormalFromMedian(8*time.Second, 25*time.Second),
				Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.05},
			{Exec: stats.LognormalFromMedian(15*time.Second, 40*time.Second)},
		})
		h, _ := c.Submit(JobConfig{Profile: p, Guarantee: 5, Deadline: 10 * time.Minute, Tracked: true})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return h.Result().Completion, len(h.Result().Trace.Events)
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 || e1 != e2 {
		t.Errorf("replay diverged: %v/%d vs %v/%d", c1, e1, c2, e2)
	}
}

// SLODefaults returns a ready-to-use candidate allocation grid 1..max.
func SLODefaults(max int) []int {
	out := make([]int, max)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func TestSLODefaults(t *testing.T) {
	g := SLODefaults(3)
	if len(g) != 3 || g[0] != 1 || g[2] != 3 {
		t.Errorf("grid = %v", g)
	}
}

func TestLateSubmitClampsToNow(t *testing.T) {
	c, _ := New(Config{Machines: 2, SlotsPerMachine: 2, Seed: 1})
	p := bigJob(t, "first", 4, 5*time.Second)
	c.Submit(JobConfig{Profile: p, Guarantee: 4, Tracked: true})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Submitting with a Start in the past must clamp to the current time.
	h, err := c.Submit(JobConfig{Profile: bigJob(t, "late", 2, time.Second),
		Guarantee: 2, Tracked: true, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := h.Result().Start; got != 5*time.Second {
		t.Errorf("late job start = %v, want clamped to 5s", got)
	}
}

// TestCrossJobTiesGoToLowerJobID pins the tie-break that used to follow
// from walking live jobs in id order. The live list now holds tracked jobs
// first, so the spare pick below sees the tracked job 1 before the
// untracked job 0, and must still choose job 0 on an exact credit tie, as
// the id-ordered walk did.
func TestCrossJobTiesGoToLowerJobID(t *testing.T) {
	c, err := New(Config{Machines: 1, SlotsPerMachine: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := bigJob(t, "twin", 4, time.Minute)
	for _, tracked := range []bool{false, true} {
		if _, err := c.Submit(JobConfig{Profile: p, Guarantee: 1, Tracked: tracked}); err != nil {
			t.Fatal(err)
		}
	}
	for _, jr := range c.jobs {
		jr.arrive(0)
		c.liveAdd(jr)
	}
	if c.live[0].id != 1 {
		t.Fatal("the tracked job should lead the live list")
	}

	// Spare round-robin: both jobs accrue equal credit for the one slot.
	for _, jr := range c.jobs {
		jr.deps.MarkReady(0, 0, 0)
		c.syncReady(jr)
	}
	c.dispatchSpare()
	if c.jobs[0].liveRunning != 1 || c.jobs[1].liveRunning != 0 {
		t.Error("the spare slot went to job 1 on a credit tie, want job 0")
	}

}

// TestGuaranteedPassVictimKeepsGuarantee pins the rule dispatchGuaranteed
// documents: a job whose spare attempt a guaranteed start evicts keeps its
// whole effective guarantee, so the pass that evicted it never starts its
// requeued task, whether the victim sorts before or after the job it was
// evicted for. Each case fills a cluster of two one-slot machines with the
// victim's two tasks, the first guaranteed and the second spare, and then
// lets a job with a one-task guarantee arrive.
func TestGuaranteedPassVictimKeepsGuarantee(t *testing.T) {
	for _, tc := range []struct {
		name             string
		arriving, victim int
		guarantee        int
		contention       []ContentionWindow
	}{
		{"victim after", 0, 1, 1, nil},
		{"victim before", 1, 0, 1, nil},
		// Guarantee 2 at half contention is an effective guarantee of 1.
		{"victim under contention", 0, 1, 2, []ContentionWindow{{From: 0, To: time.Hour, Frac: 0.5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{Machines: 2, SlotsPerMachine: 1, Seed: 1, Contention: tc.contention})
			if err != nil {
				t.Fatal(err)
			}
			cfgs := make([]JobConfig, 2)
			cfgs[tc.arriving] = JobConfig{Profile: bigJob(t, "arriving", 1, time.Minute), Guarantee: tc.guarantee}
			cfgs[tc.victim] = JobConfig{Profile: bigJob(t, "victim", 2, time.Minute), Guarantee: tc.guarantee}
			for _, cfg := range cfgs {
				if _, err := c.Submit(cfg); err != nil {
					t.Fatal(err)
				}
			}
			arriving, victim := c.jobs[tc.arriving], c.jobs[tc.victim]
			victim.arrive(0)
			c.liveAdd(victim)
			c.startTask(victim, dag.TaskRef{Task: 0}, 0, true)
			c.startTask(victim, dag.TaskRef{Task: 1}, 1, false)
			c.reclassify()
			if eff := c.effectiveGuarantee(victim); eff != 1 || victim.guarCount != 1 || victim.liveRunning != 2 {
				t.Fatalf("set-up: victim runs %d attempts, %d guaranteed, effective guarantee %d; want 2, 1, 1",
					victim.liveRunning, victim.guarCount, eff)
			}

			c.handleArrival(tc.arriving)
			if s := arriving.slot[0][0]; s < 0 || c.store.machine[s] != 1 {
				t.Fatalf("the arriving job did not take the spare attempt's machine 1 (slot %d)", s)
			}
			if victim.evictions != 1 || victim.slot[0][1] >= 0 || victim.deps.Len() != 1 {
				t.Fatalf("victim: %d evictions, task 1 in slot %d, %d ready tasks; want 1, none, 1",
					victim.evictions, victim.slot[0][1], victim.deps.Len())
			}
			if eff := c.effectiveGuarantee(victim); victim.guarCount != eff {
				t.Errorf("victim holds %d guaranteed attempts after the eviction, effective guarantee %d",
					victim.guarCount, eff)
			}
			if s := victim.slot[0][0]; s < 0 || c.store.flags[s]&flagGuar == 0 {
				t.Errorf("the victim's guaranteed attempt lost its slot or class (slot %d)", s)
			}
		})
	}
}

// TestBlockedPassLeavesTaskQueued: a pass that finds neither a free slot nor
// a spare victim for a guaranteed task must leave the task at the head of
// its job's FIFO with its queued time, so extra passes change nothing. The
// "hog" holds every slot on guaranteed tokens while "slo" waits on its
// over-subscribed guarantee; driving "slo" through a constant policy that
// ticks every 7 s adds passes that place nothing, and every task event of
// both jobs must stay the same. Every first attempt of "slo" became ready at
// its arrival, so its queued time is 0.
func TestBlockedPassLeavesTaskQueued(t *testing.T) {
	lognormal := func(name string, tasks int, median, p90 time.Duration) *profile.Profile {
		job := dag.NewBuilder(name).Stage("work", tasks).MustBuild()
		return profile.MustNew(job, []profile.StageProfile{{Exec: stats.LognormalFromMedian(median, p90)}})
	}
	hog := lognormal("hog", 8, 10*time.Minute, 30*time.Minute)
	slo := lognormal("slo", 12, time.Minute, 3*time.Minute)
	run := func(policy control.Policy) [2][]trace.TaskEvent {
		c, err := New(Config{Machines: 2, SlotsPerMachine: 2, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		h0, err := c.Submit(JobConfig{Profile: hog, Guarantee: 4, Tracked: true})
		if err != nil {
			t.Fatal(err)
		}
		h1, err := c.Submit(JobConfig{Profile: slo, Guarantee: 2, Policy: policy,
			ControlPeriod: 7 * time.Second, Start: time.Second, Tracked: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return [2][]trace.TaskEvent{h0.Result().Trace.Events, h1.Result().Trace.Events}
	}
	fixed := run(nil)
	maxAlloc, err := control.NewMaxAllocation(2)
	if err != nil {
		t.Fatal(err)
	}
	ticked := run(maxAlloc)
	for j, name := range []string{"hog", "slo"} {
		if !reflect.DeepEqual(fixed[j], ticked[j]) {
			t.Errorf("%s: task events differ under a constant policy ticking every 7 s:\n fixed  %+v\n ticked %+v",
				name, fixed[j], ticked[j])
		}
	}
	for _, e := range fixed[1] {
		if e.Attempt == 0 && e.Queued != 0 {
			t.Errorf("slo task %d: first attempt queued at %v, want 0 (its arrival)", e.Task, e.Queued)
		}
	}
}

// TestResultIndependentOfNoTrace: whether a tracked job records task
// events must not change its Result. Failures, evictions and machine losses
// make the work the job actually did differ from its profile's, and Oracle
// must come from the actual work either way. A NoTrace job with a policy
// still gets the traced run's allocation timeline and completion, with no
// events; a NoTrace job without one gets no trace at all.
func TestResultIndependentOfNoTrace(t *testing.T) {
	job := dag.NewBuilder("traced").Stage("map", 24).Stage("reduce", 6).
		Edge("map", "reduce", dag.AllToAll).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Lognormal{Mu: 4, Sigma: 0.6}, FailureProb: 0.2},
		{Exec: stats.Lognormal{Mu: 4.5, Sigma: 0.4}, FailureProb: 0.1},
	})
	run := func(withPolicy, noTrace bool) Result {
		c, err := New(Config{Machines: 6, SlotsPerMachine: 2, MachineMTBF: 20 * time.Minute, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		cfg := JobConfig{Profile: p, Guarantee: 4, Deadline: time.Minute, Tracked: true, NoTrace: noTrace}
		if withPolicy {
			cfg.ControlPeriod = 10 * time.Second
			if cfg.Policy, err = control.NewController(control.Config{
				Predictor:  model.NewAmdahl(p),
				Utility:    utility.Deadline(3 * time.Minute),
				Candidates: SLODefaults(8),
				DeadZone:   -1,
			}); err != nil {
				t.Fatal(err)
			}
		}
		h, err := c.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(JobConfig{Profile: bigJob(t, "background", 60, 2*time.Minute), Guarantee: 4}); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return h.Result()
	}
	for _, withPolicy := range []bool{false, true} {
		traced, untraced := run(withPolicy, false), run(withPolicy, true)
		if traced.Trace == nil || len(traced.Trace.Events) == 0 {
			t.Fatalf("policy %v: the traced run recorded no task events", withPolicy)
		}
		if traced.Evictions == 0 || traced.Oracle == model.Oracle(p.TotalWork(), traced.Deadline) {
			t.Fatalf("policy %v: the run must evict and need another oracle than the profile's (evictions %d, oracle %d)",
				withPolicy, traced.Evictions, traced.Oracle)
		}
		if !withPolicy {
			if untraced.Trace != nil {
				t.Fatalf("a NoTrace job without a policy got a trace: %+v", untraced.Trace)
			}
		} else {
			if untraced.Trace == nil {
				t.Fatal("a NoTrace job with a policy got no trace")
			}
			if len(traced.Trace.Timeline) < 2 {
				t.Fatalf("the policy ticked %d times, want a timeline to compare", len(traced.Trace.Timeline))
			}
			got, want := *untraced.Trace, *traced.Trace
			if got.Events != nil {
				t.Errorf("a NoTrace job recorded %d task events", len(got.Events))
			}
			want.Events = nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("the NoTrace trace differs from the traced one without events:\n traced   %+v\n untraced %+v", want, got)
			}
		}
		traced.Trace, untraced.Trace = nil, nil
		if traced != untraced {
			t.Errorf("policy %v: Result depends on NoTrace:\n traced   %+v\n untraced %+v", withPolicy, traced, untraced)
		}
	}
}

func TestWeightedSpareSharing(t *testing.T) {
	// Two identical jobs with weights 1 and 3 contend for spare capacity on
	// a saturated cluster: the heavy job should complete ~3x faster.
	mk := func(name string, tasks int) *profile.Profile {
		job := dag.NewBuilder(name).Stage("work", tasks).MustBuild()
		return profile.MustNew(job, []profile.StageProfile{
			{Exec: stats.Point{V: 10 * time.Second}},
		})
	}
	c, _ := New(Config{Machines: 4, SlotsPerMachine: 2, Seed: 1})
	light, err := c.Submit(JobConfig{Profile: mk("light", 200), Guarantee: 1, Weight: 1, Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := c.Submit(JobConfig{Profile: mk("heavy", 200), Guarantee: 1, Weight: 3, Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// While both jobs are pending, the heavy one should accumulate roughly
	// three times the completions. Compare completions at the moment the
	// first job finishes.
	first := light.Result().Completion + light.Result().Start
	if h := heavy.Result().Completion + heavy.Result().Start; h < first {
		first = h
	}
	count := func(r Result) int {
		n := 0
		for _, e := range r.Trace.Events {
			if !e.Failed && e.Ended <= first-light.Result().Start {
				n++
			}
		}
		return n
	}
	lightDone, heavyDone := count(light.Result()), count(heavy.Result())
	ratio := float64(heavyDone) / float64(lightDone)
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("weighted sharing ratio = %.2f (heavy %d vs light %d), want ~3",
			ratio, heavyDone, lightDone)
	}
}

func TestWeightValidation(t *testing.T) {
	c, _ := New(Config{})
	p := bigJob(t, "w", 2, time.Second)
	if _, err := c.Submit(JobConfig{Profile: p, Guarantee: 1, Weight: -1}); err == nil {
		t.Error("negative weight must fail")
	}
}
