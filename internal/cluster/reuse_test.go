package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

// reuseScenario is deliberately demanding: machine MTBF failures, a rack
// outage, a contention window, a mid-run deadline change, stage drift, a
// controlled SLO job, and two submissions sharing one plan (so the engine
// must hold two task sets of one *dag.Job while both are live). A run may add
// one more background job whose plan no other job uses (extraJob).
type reuseScenario struct {
	cfg   Config
	fg    *profile.Profile
	bg    *profile.Profile
	drift *profile.Profile
	extra *profile.Profile
}

// extraJob says whether and when a scenario run submits its extra job.
type extraJob int

const (
	extraNone    extraJob = iota // not submitted
	extraLate                    // submitted to start after the run ends, so it never arrives
	extraArrives                 // submitted to start mid-run
)

func (x extraJob) String() string { return [...]string{"none", "late", "arrives"}[x] }

func newReuseScenario(t testing.TB) *reuseScenario {
	t.Helper()
	fgJob := dag.NewBuilder("fg").
		Stage("m", 24).
		Stage("r", 6).
		Edge("m", "r", dag.AllToAll).
		MustBuild()
	fg := profile.MustNew(fgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(8*time.Second, 25*time.Second),
			Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.05},
		{Exec: stats.LognormalFromMedian(15*time.Second, 40*time.Second)},
	})
	bgJob := dag.NewBuilder("bg").Stage("work", 120).MustBuild()
	bg := profile.MustNew(bgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(20*time.Second, time.Minute), FailureProb: 0.02},
	})
	driftJob := dag.NewBuilder("drift").Stage("work", 30).MustBuild()
	drift := profile.MustNew(driftJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(10*time.Second, 45*time.Second)},
	})
	extraJob := dag.NewBuilder("extra").
		Stage("split", 10).
		Stage("merge", 5).
		Edge("split", "merge", dag.OneToOne).
		MustBuild()
	extra := profile.MustNew(extraJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(15*time.Second, 40*time.Second), FailureProb: 0.05},
		{Exec: stats.LognormalFromMedian(10*time.Second, 30*time.Second)},
	})
	return &reuseScenario{
		cfg: Config{
			Machines:        8,
			SlotsPerMachine: 3,
			MachineMTBF:     4 * time.Minute,
			MachineRecovery: stats.Point{V: 45 * time.Second},
			Seed:            42,
			RackOutages:     []RackOutage{{At: 2 * time.Minute, FirstMachine: 0, Machines: 3, Duration: time.Minute}},
			Contention:      []ContentionWindow{{From: 3 * time.Minute, To: 5 * time.Minute, Frac: 0.5}},
		},
		fg:    fg,
		bg:    bg,
		drift: drift,
		extra: extra,
	}
}

// run submits the scenario's jobs, and the extra job as x says, to a
// prepared cluster and returns every tracked result plus the cluster-level
// summary numbers.
func (s *reuseScenario) run(t testing.TB, c *Cluster, x extraJob) ([]Result, time.Duration, float64) {
	t.Helper()
	submit := func(cfg JobConfig) *Handle {
		h, err := c.Submit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	submit(JobConfig{Profile: s.bg, Guarantee: 4})
	submit(JobConfig{Profile: s.bg, Guarantee: 2, Weight: 2, Start: 90 * time.Second})
	hs := []*Handle{
		submit(JobConfig{Profile: s.drift, Guarantee: 3, Deadline: 12 * time.Minute,
			Tracked: true, Start: 30 * time.Second,
			Drifts: []StageDrift{{At: 2 * time.Minute, Stage: -1, Factor: 1.5}}}),
	}
	pol, err := control.NewController(control.Config{
		Predictor:  model.NewAmdahl(s.fg),
		Utility:    utility.Deadline(10 * time.Minute),
		Candidates: SLODefaults(12),
		Slack:      1.1,
		Hysteresis: 1.0,
		DeadZone:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs = append(hs, submit(JobConfig{
		Profile:       s.fg,
		Policy:        pol,
		Deadline:      10 * time.Minute,
		ControlPeriod: 30 * time.Second,
		Tracked:       true,
		Start:         time.Minute,
		DeadlineChanges: []DeadlineChange{
			{At: 3 * time.Minute, Deadline: 8 * time.Minute},
		},
	}))
	switch x {
	case extraLate:
		submit(JobConfig{Profile: s.extra, Guarantee: 2, Start: 24 * time.Hour})
	case extraArrives:
		submit(JobConfig{Profile: s.extra, Guarantee: 2, Start: 45 * time.Second})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(hs))
	for i, h := range hs {
		out[i] = h.Result()
	}
	return out, c.Now(), c.Utilization()
}

// TestEngineReuseBitIdentical pins the Engine contract: a reset engine
// replays a configuration bit-identically to a fresh cluster, including
// traces, and keeps doing so across repeated resets, whichever free task
// set, of whichever plan, each arriving job gets. The extra job's rounds
// pin the free list's size: a job that never arrives takes no set, and the
// set the extra job's first arrival adds stays free, rewound, through the
// runs it sits out, so later arrivals allocate none.
func TestEngineReuseBitIdentical(t *testing.T) {
	s := newReuseScenario(t)
	type outcome struct {
		res  []Result
		now  time.Duration
		util float64
	}
	want := map[extraJob]outcome{}
	for _, x := range []extraJob{extraNone, extraLate, extraArrives} {
		fresh, err := New(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, now, util := s.run(t, fresh, x)
		want[x] = outcome{res, now, util}
	}
	if want[extraArrives].now == want[extraNone].now {
		t.Fatal("the arriving extra job does not change the run; the rounds below would not tell the arenas apart")
	}

	eng := NewEngine()
	var held []int // free task sets as each round starts, and after the last
	for round, x := range []extraJob{extraNone, extraLate, extraArrives, extraNone, extraArrives, extraLate, extraArrives} {
		c, err := eng.Reset(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, len(eng.sets))
		gotRes, gotNow, gotUtil := s.run(t, c, x)
		wantRes, wantNow, wantUtil := want[x].res, want[x].now, want[x].util
		if gotNow != wantNow || gotUtil != wantUtil {
			t.Fatalf("round %d (extra job %v): cluster summary diverged: now %v/%v util %v/%v",
				round, x, gotNow, wantNow, gotUtil, wantUtil)
		}
		for i := range wantRes {
			got, want := gotRes[i], wantRes[i]
			gt, wt := got.Trace, want.Trace
			got.Trace, want.Trace = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: job %d result diverged:\n got %+v\nwant %+v", round, i, got, want)
			}
			if (gt == nil) != (wt == nil) {
				t.Fatalf("round %d: job %d trace presence diverged", round, i)
			}
			if gt != nil && !reflect.DeepEqual(*gt, *wt) {
				t.Fatalf("round %d: job %d trace diverged (%d/%d events, %d/%d alloc points)",
					round, i, len(gt.Events), len(wt.Events), len(gt.Timeline), len(wt.Timeline))
			}
		}
	}
	if _, err := eng.Reset(s.cfg); err != nil {
		t.Fatal(err)
	}
	held = append(held, len(eng.sets))
	// Round 0 allocates the sets of its peak concurrency. After it, only
	// round 2, the extra job's first arrival, adds one: round 1's late job
	// never arrives, and rounds 4 and 6 find the sets round 2 left.
	n := held[1]
	if wantHeld := []int{0, n, n, n + 1, n + 1, n + 1, n + 1, n + 1}; n == 0 || !slices.Equal(held, wantHeld) {
		t.Fatalf("free task sets as each round starts: %v, want %v", held, wantHeld)
	}
}

// TestEngineTracesSurviveReset pins that a Result.Trace taken from one run is
// freshly allocated per run: resetting and re-running must not mutate it.
func TestEngineTracesSurviveReset(t *testing.T) {
	s := newReuseScenario(t)
	eng := NewEngine()
	c, err := eng.Reset(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ := s.run(t, c, extraNone)
	kept := res[1].Trace
	keptEvents := len(kept.Events)
	keptCompletion := kept.Completion
	if _, err := eng.Reset(s.cfg); err != nil {
		t.Fatal(err)
	}
	c2, _ := eng.Reset(s.cfg)
	s.run(t, c2, extraNone)
	if len(kept.Events) != keptEvents || kept.Completion != keptCompletion {
		t.Fatal("trace retained across Reset was mutated by a later run")
	}
}

// TestCompletedJobReleasesPolicy pins that a completed job drops its policy
// and task-event callback when it completes, not at the engine's next Reset,
// so an idle engine pins no controller or guard of the last replay, while
// its Handle still returns the full result.
func TestCompletedJobReleasesPolicy(t *testing.T) {
	s := newReuseScenario(t)
	c, err := New(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := control.NewController(control.Config{
		Predictor:  model.NewAmdahl(s.fg),
		Utility:    utility.Deadline(10 * time.Minute),
		Candidates: SLODefaults(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	h, err := c.Submit(JobConfig{
		Profile:       s.fg,
		Policy:        pol,
		OnTaskEvent:   func(trace.TaskEvent) { seen++ },
		Deadline:      10 * time.Minute,
		ControlPeriod: 30 * time.Second,
		Tracked:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobConfig{Profile: s.bg, Guarantee: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("controlled job did not complete")
	}
	for _, jr := range c.jobs {
		if jr.completed && (jr.cfg.Policy != nil || jr.cfg.OnTaskEvent != nil) {
			t.Errorf("completed job %d still holds its policy or task-event callback", jr.id)
		}
	}
	res := h.Result()
	if res.Completion <= 0 || res.Trace == nil || res.Trace.Completion != res.Completion {
		t.Fatalf("result lost after release: %+v", res)
	}
	if seen == 0 || len(res.Trace.Events) != seen {
		t.Fatalf("trace holds %d task events, callback saw %d", len(res.Trace.Events), seen)
	}
	if len(res.Trace.Timeline) == 0 {
		t.Fatal("trace holds no control decisions")
	}
}

// TestRunReleasesEpochHook: once Run returns, the engine no longer holds
// Config.OnEpoch. A fleet arbiter's hook closes over its whole replay (every
// job's controller, guard and model builder), which an idle engine would
// otherwise keep alive until its next Reset.
func TestRunReleasesEpochHook(t *testing.T) {
	s := newReuseScenario(t)
	e := NewEngine()
	var c *Cluster
	epochs := 0
	cfg := s.cfg
	cfg.EpochPeriod = time.Minute
	cfg.OnEpoch = func(now time.Duration) bool {
		epochs++
		if now < 5*time.Minute {
			return true
		}
		c.Unhold()
		return false
	}
	c, err := e.Reset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(JobConfig{Profile: s.fg, Guarantee: 6, Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Hold()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() || epochs != 6 {
		t.Fatalf("job done %v after %d epochs; want done after 6", h.Done(), epochs)
	}
	if e.c.cfg.OnEpoch != nil {
		t.Error("idle engine still holds the finished run's epoch hook")
	}
}

// TestTaskSetsScaleWithConcurrency pins that a job returns its task set
// when it completes, and that an arriving job gets a new set only when no
// free set holds its plan. Jobs of one plan that run one after another
// leave one set, and jobs that overlap leave one each. Of plans of
// different sizes run one after another, the largest first leaves one set,
// which each later plan reshapes; the smallest first leaves one per plan on
// a fresh engine, since no earlier set holds a later plan, and one on an
// engine that holds a set of the largest. A completed job's Handle.State
// reads no set: its time since arrival and every stage done.
func TestTaskSetsScaleWithConcurrency(t *testing.T) {
	const k = 4
	p := fixedJob(t, "serial")
	same := []*profile.Profile{p, p, p, p}
	var smallest []*profile.Profile // 4, 6, 8 and 10 tasks
	for i := range k {
		smallest = append(smallest, mapReduceJob(t, fmt.Sprintf("mr%d", i), 2*(i+1)))
	}
	largest := slices.Clone(smallest)
	slices.Reverse(largest)
	eng, sized := NewEngine(), NewEngine()
	for _, tc := range []struct {
		name  string
		eng   *Engine
		plans []*profile.Profile
		gap   time.Duration // between starts; each job runs under 30 s alone
		sets  []int         // the free sets' capacities in tasks, ascending
	}{
		{"one after another", eng, same, time.Minute, []int{10}},
		{"overlapping", eng, same, 0, []int{10, 10, 10, 10}},
		{"one after another on a warm engine", eng, same, time.Minute, []int{10, 10, 10, 10}},
		{"largest plan first", sized, largest, time.Minute, []int{10}},
		{"smallest plan first after the largest", sized, smallest, time.Minute, []int{10}},
		{"smallest plan first", NewEngine(), smallest, time.Minute, []int{4, 6, 8, 10}},
	} {
		c, err := tc.eng.Reset(Config{Machines: 4, SlotsPerMachine: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*Handle, len(tc.plans))
		for i := range hs {
			if hs[i], err = c.Submit(JobConfig{Profile: tc.plans[i], Guarantee: 2, Tracked: true, NoTrace: true,
				Start: time.Duration(i) * tc.gap}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if got := freeCaps(tc.eng); !slices.Equal(got, tc.sets) {
			t.Errorf("%s: %d jobs left free task sets of %v tasks, want %v", tc.name, len(hs), got, tc.sets)
		}
		for i, h := range hs {
			st := h.State()
			if want := c.Now() - h.Result().Start; st.Elapsed != want || !slices.Equal(st.FracDone, []float64{1, 1}) {
				t.Errorf("%s: completed job %d reports %+v, want elapsed %v and every stage done", tc.name, i, st, want)
			}
		}
	}
}

// TestTakeSetPicksTightestFit pins the rule an arriving job's task set
// follows: the free set with the least spare capacity that holds the plan,
// even over a roomier set of the plan itself, which stays free for a plan
// that needs the room; a set of the plan on a tie; and a new set, leaving
// the free list alone, when no free set holds the plan.
func TestTakeSetPicksTightestFit(t *testing.T) {
	small := mapReduceJob(t, "small", 2).Job
	twin := mapReduceJob(t, "twin", 2).Job // small's size, another plan
	large := mapReduceJob(t, "large", 8).Job
	e := NewEngine()
	roomy := newTaskSet(large)
	roomy.reshape(small)
	tight := newTaskSet(twin)
	e.putSet(roomy)
	e.putSet(tight)
	if got := e.takeSet(small); got != tight || got.deps.Job() != small || len(got.slot) != 4 {
		t.Fatalf("small job took the set of %d slots for %s; want the tight set, reshaped", cap(got.slot), got.deps.Job().Name)
	}
	if got := e.takeSet(large); got != roomy || len(got.slot) != 10 {
		t.Fatalf("large job took a set of %d slots; want the roomy one", cap(got.slot))
	}
	other := newTaskSet(twin)
	own := newTaskSet(small)
	e.putSet(other)
	e.putSet(own)
	if got := e.takeSet(small); got != own {
		t.Fatalf("small job took a set for %s over an equally tight set of its own plan", got.deps.Job().Name)
	}
	if got := e.takeSet(large); got == other || len(got.slot) != 10 || len(e.sets) != 1 {
		t.Fatalf("large job took a set of %d slots and left %d free; want a new set and the small one free",
			cap(got.slot), len(e.sets))
	}
}

// mapReduceJob is fixedJob with maps map tasks.
func mapReduceJob(t testing.TB, name string, maps int) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder(name).
		Stage("map", maps).
		Stage("reduce", 2).
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 20 * time.Second}},
	})
}

// freeCaps returns the capacities, in tasks, of the engine's free task
// sets, ascending.
func freeCaps(e *Engine) []int {
	caps := make([]int, len(e.sets))
	for i, ts := range e.sets {
		caps[i] = cap(ts.slot)
	}
	slices.Sort(caps)
	return caps
}

// steadyCfg is a failure-free, policy-free configuration whose event loop
// exercises dispatch, eviction-free completion, and locality accounting —
// the pure hot path the allocation guard measures.
func steadyCfg() (Config, JobConfig, JobConfig) {
	job := dag.NewBuilder("steady").
		Stage("m", 40).
		Stage("r", 8).
		Edge("m", "r", dag.AllToAll).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(8*time.Second, 20*time.Second)},
		{Exec: stats.LognormalFromMedian(12*time.Second, 30*time.Second)},
	})
	bgJob := dag.NewBuilder("steadybg").Stage("work", 60).MustBuild()
	bgp := profile.MustNew(bgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(15*time.Second, 40*time.Second)},
	})
	cfg := Config{Machines: 6, SlotsPerMachine: 3, Seed: 9}
	fg := JobConfig{Profile: p, Guarantee: 8, Deadline: 10 * time.Minute, Tracked: true, NoTrace: true}
	bg := JobConfig{Profile: bgp, Guarantee: 2}
	return cfg, fg, bg
}

// TestEngineSteadyStateAllocations is the arena-reuse acceptance guard: once
// warmed, a full Reset+Submit+Run cycle must allocate nothing, no matter how
// many tasks and events the run processes.
func TestEngineSteadyStateAllocations(t *testing.T) {
	cfg, fg, bg := steadyCfg()
	eng := NewEngine()
	cycle := func() {
		c, err := eng.Reset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(bg); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(fg); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // warm every pool and backing array
	}
	// The job seeds, the handles and the default recovery distribution come
	// from no allocation, and neither do the 148 tasks' events.
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("steady-state cycle allocates %.1f times, want 0", avg)
	}
}

// TestSubmitWithoutArrivalAllocatesNothing pins that Submit does O(1) work
// that allocates nothing on a warm engine: a job that never arrives takes a
// pooled jobRun and no task set, as the paper replays' background jobs that
// arrive after the tracked job completes do.
func TestSubmitWithoutArrivalAllocatesNothing(t *testing.T) {
	cfg, _, bg := steadyCfg()
	bg.Start = 24 * time.Hour
	const jobs = 200
	eng := NewEngine()
	for i := 0; i < 2; i++ { // the second Reset finds the pool's slice grown
		c, err := eng.Reset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < jobs; j++ {
			if _, err := c.Submit(bg); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := eng.Reset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(jobs-1, func() {
		if _, err := c.Submit(bg); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("a warm Submit allocates %.1f times, want 0", avg)
	}
	for _, jr := range c.jobs {
		if jr.taskSet != nil {
			t.Fatalf("job %d never arrived but holds a task set", jr.id)
		}
	}
	if len(eng.sets) != 0 {
		t.Fatalf("jobs that never arrived left %d task sets", len(eng.sets))
	}
}

// policySteadyCycle runs steadyCfg's workload with the SLO job driven by a
// real Jockey controller (recording off), so the measured loop includes every
// per-tick Decide call along the reused-Engine replay path. The controller is
// stateful and must be rebuilt per cycle; its construction is the per-cycle
// allocation constant the guard bounds.
func policySteadyCycle(t testing.TB, eng *Engine, cfg Config, fg, bg JobConfig) {
	pol, err := control.NewController(control.Config{
		Predictor:  model.NewAmdahl(fg.Profile),
		Utility:    utility.Deadline(10 * time.Minute),
		Candidates: SLODefaults(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	fg.Policy = pol
	fg.ControlPeriod = 30 * time.Second
	c, err := eng.Reset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(fg); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEnginePolicySteadyStateAllocations pins that the decision flight
// recorder's control-loop hooks cost nothing when recording is off: a
// policy-driven Reset+Submit+Run cycle allocates only the per-cycle constant
// (controller construction plus the submission bookkeeping already pinned
// above). The run makes ~20 control ticks; if the nil-recorder Decide path
// allocated even once per tick, the bound would break immediately.
func TestEnginePolicySteadyStateAllocations(t *testing.T) {
	cfg, fg, bg := steadyCfg()
	eng := NewEngine()
	cycle := func() { policySteadyCycle(t, eng, cfg, fg, bg) }
	for i := 0; i < 3; i++ {
		cycle() // warm every pool and backing array
	}
	avg := testing.AllocsPerRun(10, cycle)
	if avg > 40 {
		t.Errorf("policy-driven steady-state cycle allocates %.1f times, want the per-cycle constant (<= 40)", avg)
	}
}

func BenchmarkEngineFresh(b *testing.B) {
	withoutPassCheck(b)
	cfg, fg, bg := steadyCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Submit(bg); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Submit(fg); err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineReuse(b *testing.B) {
	withoutPassCheck(b)
	cfg, fg, bg := steadyCfg()
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := eng.Reset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Submit(bg); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Submit(fg); err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineLateArrivals has the paper replays' shape: one traced SLO
// job on a reused engine, and background jobs of four plans submitted to
// arrive every 90 s over six hours. The SLO job completes in minutes, so Run
// returns with most background jobs submitted but never arrived; their
// Submits, not their tasks, dominate what the engine allocates.
func BenchmarkEngineLateArrivals(b *testing.B) {
	withoutPassCheck(b)
	cfg, fg, bg := steadyCfg()
	fg.NoTrace = false
	plans := make([]*profile.Profile, 4)
	for i := range plans {
		job := dag.NewBuilder("late").Stage("work", 30<<i).MustBuild()
		plans[i] = profile.MustNew(job, []profile.StageProfile{
			{Exec: stats.LognormalFromMedian(15*time.Second, 40*time.Second)},
		})
	}
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := eng.Reset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Submit(fg); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 240; j++ {
			bg.Profile = plans[j%len(plans)]
			bg.Start = time.Duration(j) * 90 * time.Second
			if _, err := c.Submit(bg); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineManyJobs is the scheduling-pass layer benchmark: 300 jobs
// on a 100 × 5 cluster, hundreds of them live at once and over-subscribing
// it, every guarantee re-set each epoch from OnEpoch, on a reused engine —
// the fleet-scale shape without the arbiter. Each pass changes a few jobs
// and the epochs re-guarantee all of them, so its cost is what the dirty
// set, the spare-top heap and the ready index scale with: the dispatchers
// walk only the live jobs with ready work, a handful of the hundreds live.
func BenchmarkEngineManyJobs(b *testing.B) {
	withoutPassCheck(b)
	job := dag.NewBuilder("many").
		Stage("m", 12).
		Stage("r", 3).
		Edge("m", "r", dag.AllToAll).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(30*time.Second, 90*time.Second)},
		{Exec: stats.LognormalFromMedian(20*time.Second, time.Minute)},
	})
	const jobs = 300
	hs := make([]*Handle, 0, jobs)
	epoch := 0
	cfg := Config{
		Machines:        100,
		SlotsPerMachine: 5,
		Seed:            5,
		EpochPeriod:     30 * time.Second,
		OnEpoch: func(time.Duration) bool {
			epoch++
			for i, h := range hs {
				h.SetGuarantee(1 + (epoch+i)%4)
			}
			return true
		},
	}
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := eng.Reset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hs, epoch = hs[:0], 0
		for j := 0; j < jobs; j++ {
			h, err := c.Submit(JobConfig{Profile: p, Guarantee: 2, Tracked: j%3 == 0, NoTrace: true,
				Start: time.Duration(j%40) * 15 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			hs = append(hs, h)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// backgroundLoaded returns the shape the paper replays share: one tracked
// job beside a background fleet on a 30 × 5 cluster, the background jobs
// with guarantees of 1–3 and 50–400 tasks, half of them with a reduce stage,
// arriving every 20 s.
func backgroundLoaded() (Config, JobConfig, []JobConfig) {
	exec := stats.LognormalFromMedian(20*time.Second, 90*time.Second)
	plans := make([]*profile.Profile, 8)
	for i := range plans {
		tasks := 50 + i*50
		if i%2 == 0 {
			plans[i] = profile.MustNew(dag.NewBuilder("bg").Stage("map", tasks).MustBuild(),
				[]profile.StageProfile{{Exec: exec}})
			continue
		}
		job := dag.NewBuilder("bgb").
			Stage("map", tasks).
			Stage("reduce", tasks/8).
			Edge("map", "reduce", dag.AllToAll).
			MustBuild()
		plans[i] = profile.MustNew(job, []profile.StageProfile{{Exec: exec}, {Exec: exec}})
	}
	bg := make([]JobConfig, 120)
	for j := range bg {
		bg[j] = JobConfig{Profile: plans[j*5%len(plans)], Guarantee: 1 + j%3, Start: time.Duration(j) * 20 * time.Second}
	}
	slo := dag.NewBuilder("slo").
		Stage("extract", 400).
		Stage("aggregate", 40).
		Edge("extract", "aggregate", dag.AllToAll).
		MustBuild()
	fg := JobConfig{
		Profile: profile.MustNew(slo, []profile.StageProfile{
			{Exec: stats.LognormalFromMedian(15*time.Second, 45*time.Second)},
			{Exec: stats.LognormalFromMedian(30*time.Second, 90*time.Second)},
		}),
		Guarantee: 20, Tracked: true, NoTrace: true, Start: 10 * time.Minute,
	}
	return Config{Machines: 30, SlotsPerMachine: 5, Seed: 3}, fg, bg
}

// BenchmarkEngineBackgroundLoaded runs backgroundLoaded on a reused engine.
// The fleet keeps the cluster full and dozens of jobs holding ready work, so
// a scheduling pass finds almost no job owed a guaranteed token and no free
// slot: the pass's cost is what the owed set and the full-cluster eviction
// path scale with.
func BenchmarkEngineBackgroundLoaded(b *testing.B) {
	withoutPassCheck(b)
	cfg, fg, bg := backgroundLoaded()
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := eng.Reset(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, job := range bg {
			if _, err := c.Submit(job); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Submit(fg); err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
