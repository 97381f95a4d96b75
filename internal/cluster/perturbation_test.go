package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/utility"
)

func TestPerturbationConfigValidation(t *testing.T) {
	cases := []Config{
		{RackOutages: []RackOutage{{At: -time.Second, FirstMachine: 0, Machines: 1, Duration: time.Minute}}},
		{RackOutages: []RackOutage{{FirstMachine: 0, Machines: 1}}}, // zero duration
		{RackOutages: []RackOutage{{FirstMachine: 24, Machines: 2, Duration: time.Minute}}},
		{RackOutages: []RackOutage{{FirstMachine: -1, Machines: 1, Duration: time.Minute}}},
		{RackOutages: []RackOutage{{FirstMachine: 0, Machines: 0, Duration: time.Minute}}},
		// FirstMachine+Machines overflows int in both.
		{RackOutages: []RackOutage{{FirstMachine: math.MaxInt, Machines: 1, Duration: time.Minute}}},
		{RackOutages: []RackOutage{{FirstMachine: 1, Machines: math.MaxInt, Duration: time.Minute}}},
		{Contention: []ContentionWindow{{From: time.Minute, To: time.Second, Frac: 0.5}}},
		{Contention: []ContentionWindow{{From: -time.Second, To: time.Minute, Frac: 0.5}}},
		{Contention: []ContentionWindow{{From: 0, To: time.Minute, Frac: 1}}},
		{Contention: []ContentionWindow{{From: 0, To: time.Minute, Frac: -0.1}}},
		{Contention: []ContentionWindow{{From: 0, To: time.Minute, Frac: math.NaN()}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid perturbation config accepted: %+v", i, cfg)
		}
	}
}

func TestSubmitPerturbationValidation(t *testing.T) {
	c, _ := New(Config{})
	p := fixedJob(t, "x")
	bad := []JobConfig{
		{Profile: p, Guarantee: 1, Drifts: []StageDrift{{Stage: 2, Factor: 2}}},
		{Profile: p, Guarantee: 1, Drifts: []StageDrift{{Stage: -2, Factor: 2}}},
		{Profile: p, Guarantee: 1, Drifts: []StageDrift{{Stage: 0, Factor: 0}}},
		{Profile: p, Guarantee: 1, Drifts: []StageDrift{{Stage: 0, Factor: math.NaN()}}},
		{Profile: p, Guarantee: 1, Drifts: []StageDrift{{Stage: 0, Factor: math.Inf(1)}}},
		{Profile: p, Guarantee: 1, Drifts: []StageDrift{{At: -time.Second, Stage: 0, Factor: 2}}},
		{Profile: p, Guarantee: 1, DeadlineChanges: []DeadlineChange{{At: -time.Second, Deadline: time.Hour}}},
		{Profile: p, Guarantee: 1, DeadlineChanges: []DeadlineChange{{At: time.Second}}}, // zero new deadline
	}
	for i, jc := range bad {
		if _, err := c.Submit(jc); err == nil {
			t.Errorf("case %d: invalid job config accepted: %+v", i, jc)
		}
	}
	// All-stage drift (-1) is valid.
	if _, err := c.Submit(JobConfig{Profile: p, Guarantee: 1,
		Drifts: []StageDrift{{Stage: -1, Factor: 2}}}); err != nil {
		t.Errorf("all-stage drift rejected: %v", err)
	}
}

// runOne runs a single tracked job to completion and returns its result.
func runOne(t *testing.T, ccfg Config, jcfg JobConfig) Result {
	t.Helper()
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	jcfg.Tracked = true
	h, err := c.Submit(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return h.Result()
}

func TestStageDriftSlowsJob(t *testing.T) {
	ccfg := Config{Machines: 4, SlotsPerMachine: 2, Seed: 3}
	base := runOne(t, ccfg, JobConfig{Profile: fixedJob(t, "base"), Guarantee: 8})
	drifted := runOne(t, ccfg, JobConfig{
		Profile: fixedJob(t, "drift"), Guarantee: 8,
		Drifts: []StageDrift{{At: 0, Stage: -1, Factor: 2}},
	})
	if drifted.Completion < time.Duration(float64(base.Completion)*1.8) {
		t.Fatalf("2x all-stage drift: completion %v vs base %v, want ~2x", drifted.Completion, base.Completion)
	}
	// Drift on one stage only slows that stage's share.
	partial := runOne(t, ccfg, JobConfig{
		Profile: fixedJob(t, "partial"), Guarantee: 8,
		Drifts: []StageDrift{{At: 0, Stage: 1, Factor: 2}},
	})
	if partial.Completion <= base.Completion || partial.Completion >= drifted.Completion {
		t.Fatalf("single-stage drift completion %v not between base %v and full drift %v",
			partial.Completion, base.Completion, drifted.Completion)
	}
}

func TestStageDriftAppliesMidRun(t *testing.T) {
	// Drift injected after the job would normally be done changes nothing.
	ccfg := Config{Machines: 4, SlotsPerMachine: 2, Seed: 3}
	base := runOne(t, ccfg, JobConfig{Profile: fixedJob(t, "base"), Guarantee: 8})
	late := runOne(t, ccfg, JobConfig{
		Profile: fixedJob(t, "late"), Guarantee: 8,
		Drifts: []StageDrift{{At: base.Completion + time.Minute, Stage: -1, Factor: 10}},
	})
	if late.Completion != base.Completion {
		t.Fatalf("late drift changed completion: %v vs %v", late.Completion, base.Completion)
	}
}

// TestHugeDriftIsAnError: a drift factor whose drifted service times
// overflow time.Duration saturates them, so the job cannot finish and Run
// fails naming the job and the factor, rather than wrapping the times into
// short attempts and reporting an early completion.
func TestHugeDriftIsAnError(t *testing.T) {
	for _, drifts := range [][]StageDrift{
		{{At: 0, Stage: -1, Factor: 1e300}},
		{{At: 0, Stage: 1, Factor: 1e200}, {At: 0, Stage: 1, Factor: 1e200}},
		{{At: 5 * time.Second, Stage: -1, Factor: 1e12}},
	} {
		c, err := New(Config{Machines: 4, SlotsPerMachine: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(JobConfig{Profile: fixedJob(t, "x"), Guarantee: 8, Tracked: true, Drifts: drifts}); err != nil {
			t.Fatal(err)
		}
		err = c.Run()
		f := 1.0
		for _, d := range drifts {
			f *= d.Factor
		}
		if want := fmt.Sprintf("(x at drift factor %g)", f); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("drifts %v: Run error = %v, want one containing %q", drifts, err, want)
		}
	}
}

func TestRackOutageEvictsAndRecovers(t *testing.T) {
	// 2 machines x 2 slots; the job needs both. Take machine 0 down shortly
	// after start: its tasks are evicted and re-run, delaying completion.
	ccfg := Config{Machines: 2, SlotsPerMachine: 2, Seed: 5}
	base := runOne(t, ccfg, JobConfig{Profile: bigJob(t, "b", 8, time.Minute), Guarantee: 4})
	out := ccfg
	out.RackOutages = []RackOutage{{At: 30 * time.Second, FirstMachine: 0, Machines: 1, Duration: 2 * time.Minute}}
	hit := runOne(t, out, JobConfig{Profile: bigJob(t, "b", 8, time.Minute), Guarantee: 4})
	if hit.Completion <= base.Completion {
		t.Fatalf("rack outage did not slow the job: %v vs %v", hit.Completion, base.Completion)
	}
	if hit.Trace == nil || len(hit.Trace.Events) <= len(base.Trace.Events) {
		t.Fatalf("rack outage produced no extra (failed) attempts")
	}
	// The cluster recovered: the job did finish (Run returned nil above).
}

func TestRackOutageWholeClusterRecovers(t *testing.T) {
	ccfg := Config{Machines: 2, SlotsPerMachine: 2, Seed: 5}
	ccfg.RackOutages = []RackOutage{{At: 30 * time.Second, FirstMachine: 0, Machines: 2, Duration: time.Minute}}
	r := runOne(t, ccfg, JobConfig{Profile: bigJob(t, "b", 8, time.Minute), Guarantee: 4})
	if r.Completion < 90*time.Second {
		t.Fatalf("whole-cluster outage: completion %v, want >= 90s", r.Completion)
	}
}

func TestOverlappingOutagesExtendDowntime(t *testing.T) {
	// Two overlapping outages of the same machine: the machine must stay
	// down until the later recovery, and the job still completes.
	ccfg := Config{Machines: 2, SlotsPerMachine: 2, Seed: 5}
	ccfg.RackOutages = []RackOutage{
		{At: 30 * time.Second, FirstMachine: 0, Machines: 1, Duration: 3 * time.Minute},
		{At: 60 * time.Second, FirstMachine: 0, Machines: 2, Duration: 30 * time.Second},
	}
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(JobConfig{Profile: bigJob(t, "b", 8, time.Minute), Guarantee: 4, Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("job did not complete")
	}
	// Machine 0's first outage (until 3m30s) outlives the second outage's
	// recovery (1m30s): the early recover event must have been ignored.
	if c.mDown[0] != 30*time.Second+3*time.Minute {
		t.Fatalf("machine 0 downUntil = %v, want 3m30s", c.mDown[0])
	}
}

func TestContentionWindowThrottlesGuarantee(t *testing.T) {
	// 8 tasks x 1min at guarantee 4 finish in ~2min; halving the honored
	// guarantee for the whole run stretches that to ~4min. NoSpare keeps the
	// job from dodging contention via spare tokens.
	ccfg := Config{Machines: 2, SlotsPerMachine: 2, Seed: 7}
	base := runOne(t, ccfg, JobConfig{Profile: bigJob(t, "b", 8, time.Minute), Guarantee: 4, NoSpare: true})
	con := ccfg
	con.Contention = []ContentionWindow{{From: 0, To: 10 * time.Hour, Frac: 0.5}}
	hit := runOne(t, con, JobConfig{Profile: bigJob(t, "b", 8, time.Minute), Guarantee: 4, NoSpare: true})
	if hit.Completion < time.Duration(float64(base.Completion)*1.8) {
		t.Fatalf("contention at 0.5 did not ~double completion: %v vs %v", hit.Completion, base.Completion)
	}
	// Accounting still charges the nominal guarantee — the broken promise.
	wantAlloc := 4 * hit.Completion.Seconds()
	if hit.AllocTokenSeconds < wantAlloc*0.99 {
		t.Fatalf("contention leaked into alloc accounting: %v token-secs, want ~%v",
			hit.AllocTokenSeconds, wantAlloc)
	}
}

func TestContentionWindowEnds(t *testing.T) {
	// A contention window covering only the first half: completion lands
	// between the unthrottled and fully-throttled runs.
	ccfg := Config{Machines: 2, SlotsPerMachine: 2, Seed: 7}
	base := runOne(t, ccfg, JobConfig{Profile: bigJob(t, "b", 8, time.Minute), Guarantee: 4, NoSpare: true})
	con := ccfg
	con.Contention = []ContentionWindow{{From: 0, To: base.Completion / 2, Frac: 0.5}}
	hit := runOne(t, con, JobConfig{Profile: bigJob(t, "b", 8, time.Minute), Guarantee: 4, NoSpare: true})
	if hit.Completion <= base.Completion || hit.Completion >= 2*base.Completion {
		t.Fatalf("half-run contention completion %v not in (%v, %v)",
			hit.Completion, base.Completion, 2*base.Completion)
	}
}

func TestPerturbedRunDeterministic(t *testing.T) {
	run := func() Result {
		ccfg := Config{Machines: 4, SlotsPerMachine: 2, Seed: 11,
			MachineMTBF: 20 * time.Minute,
			RackOutages: []RackOutage{{At: time.Minute, FirstMachine: 0, Machines: 2, Duration: time.Minute}},
			Contention:  []ContentionWindow{{From: 90 * time.Second, To: 3 * time.Minute, Frac: 0.5}},
		}
		return runOne(t, ccfg, JobConfig{
			Profile: fixedJob(t, "det"), Guarantee: 6,
			Drifts: []StageDrift{{At: 30 * time.Second, Stage: -1, Factor: 1.5}},
		})
	}
	a, b := run(), run()
	if a.Completion != b.Completion || a.Evictions != b.Evictions {
		t.Fatalf("perturbed runs diverged: %+v vs %+v", a, b)
	}
	if len(a.Trace.Events) != len(b.Trace.Events) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(a.Trace.Events), len(b.Trace.Events))
	}
}

// TestEventChainsStopAfterCompletion: the periodic events a job schedules
// for itself (control ticks) must stop once it completes, or a finished job
// would keep the event queue alive. A Hold keeps Run going past the job's
// completion, so Run returns only when the queue drains, or at the maximum
// simulated time if a chain re-queues itself forever.
func TestEventChainsStopAfterCompletion(t *testing.T) {
	c, err := New(Config{Machines: 4, SlotsPerMachine: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := fixedJob(t, "chains")
	pol, err := control.NewController(control.Config{
		Predictor:  model.NewAmdahl(p),
		Utility:    utility.Deadline(10 * time.Minute),
		Candidates: SLODefaults(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(JobConfig{
		Profile: p, Policy: pol, Deadline: 10 * time.Minute, Tracked: true,
		ControlPeriod: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Hold()
	err = c.Run()
	if !h.Done() {
		t.Fatal("job did not complete")
	}
	if err == nil || !strings.Contains(err.Error(), "event queue drained") {
		t.Fatalf("Run after completion = %v, want the drained-queue error", err)
	}
}

func TestRunErrorNamesUnfinishedJobs(t *testing.T) {
	// An impossible job (more guaranteed work than sim time: 300 hours on
	// one slot) must name itself in the Run error.
	c, err := New(Config{Machines: 1, SlotsPerMachine: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobConfig{Profile: bigJob(t, "hopeless", 2, 150*time.Hour), Guarantee: 1, Tracked: true}); err != nil {
		t.Fatal(err)
	}
	err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "hopeless") {
		t.Fatalf("Run error does not name the unfinished job: %v", err)
	}
}
