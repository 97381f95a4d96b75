package control

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

// linearPred is a synthetic predictor for a single-stage job that finishes
// in K at any allocation: its one sample is (1 − p) · K. A job progressing at
// rate 1/K per unit time makes it perfectly calibrated; slower progress
// makes it stale.
type linearPred struct {
	K      time.Duration
	sample [1]time.Duration
}

func (f *linearPred) Samples(st model.State, a int) []time.Duration {
	p := min(st.FracDone[0], 1)
	f.sample[0] = time.Duration((1 - p) * float64(f.K))
	return f.sample[:]
}

func guardFixture(t *testing.T, deadline time.Duration, rebuild func(p *profile.Profile, gen int) (model.Predictor, error)) *Guard {
	t.Helper()
	g, err := NewGuard(guardFixtureConfig(t, deadline, rebuild))
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	return g
}

// guardFixtureConfig is guardFixture's GuardConfig: a 10-task one-stage
// prior and a controller on linearPred with K = 60 minutes.
func guardFixtureConfig(t *testing.T, deadline time.Duration, rebuild func(p *profile.Profile, gen int) (model.Predictor, error)) GuardConfig {
	t.Helper()
	job := dag.NewBuilder("guard-test").Stage("only", 10).MustBuild()
	prior := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 2 * time.Minute}},
	})
	ctrl, err := NewController(Config{
		Predictor:  &linearPred{K: 60 * time.Minute},
		Utility:    utility.Deadline(deadline),
		Candidates: []int{10, 20, 40},
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return GuardConfig{Controller: ctrl, Prior: prior, RebuildPrimary: rebuild}
}

// tick advances the guard one control period with the given progress.
func tick(g *Guard, minute int, frac float64) Decision {
	return g.Decide(model.State{
		Elapsed:  time.Duration(minute) * time.Minute,
		FracDone: []float64{frac},
	})
}

func TestGuardCalibratedModelStaysPrimary(t *testing.T) {
	g := guardFixture(t, 90*time.Minute, nil)
	// Progress exactly at the model's rate: slip stays ~0.
	for m := 1; m <= 30; m++ {
		d := tick(g, m, float64(m)/60)
		if d.Mode != "primary" {
			t.Fatalf("minute %d: mode %q, want primary", m, d.Mode)
		}
		if d.Deviation > 0.05 {
			t.Fatalf("minute %d: deviation %v for a calibrated model", m, d.Deviation)
		}
	}
	if n := len(g.Events()); n != 0 {
		t.Fatalf("calibrated run logged %d guard events: %+v", n, g.Events())
	}
}

// TestGuardDetectsDriftWithoutRebuild: with no rebuild path, a stale model
// under a 2× drift is detected but stays in use. The guard's only other
// mode is panic, and the deadline here is never at risk.
func TestGuardDetectsDriftWithoutRebuild(t *testing.T) {
	g := guardFixture(t, 300*time.Minute, nil)
	// 10 calibrated minutes, then progress halves (a 2× runtime drift):
	// slip ≈ 0.5 per tick, crossing the 0.3 threshold once the window
	// majority sees drift.
	for m := 1; m <= 10; m++ {
		tick(g, m, float64(m)/60)
	}
	maxDev := 0.0
	for m := 11; m <= 40; m++ {
		frac := 10.0/60 + float64(m-10)/120
		d := tick(g, m, frac)
		if d.Mode != "primary" {
			t.Fatalf("minute %d: mode %q, want primary", m, d.Mode)
		}
		maxDev = max(maxDev, d.Deviation)
		st := model.State{Elapsed: time.Duration(m) * time.Minute, FracDone: []float64{frac}}
		if g.deadlineAtRisk(st) {
			t.Fatalf("minute %d: deadline at risk in a fixture that should not panic", m)
		}
	}
	if maxDev <= guardThreshold {
		t.Fatalf("deviation peaked at %v, want above %v under 2x drift", maxDev, guardThreshold)
	}
	if !g.stale {
		t.Fatal("detector did not flag the model stale")
	}
	if evs := g.Events(); len(evs) != 0 {
		t.Fatalf("guard logged events with the deadline never at risk: %+v", evs)
	}
}

func TestGuardReprofilesOnDrift(t *testing.T) {
	var gotGen int
	var gotProfile *profile.Profile
	rebuild := func(p *profile.Profile, gen int) (model.Predictor, error) {
		gotGen, gotProfile = gen, p
		// The "rebuilt" model knows about the drift: completion takes 2K.
		return &linearPred{K: 120 * time.Minute}, nil
	}
	g := guardFixture(t, 300*time.Minute, rebuild)
	g.minLive = 5
	// Feed live observations so re-profiling has data.
	for i := 0; i < 8; i++ {
		g.ObserveTask(trace.TaskEvent{
			Stage: 0, Task: i,
			Started: time.Duration(i) * time.Minute,
			Ended:   time.Duration(i)*time.Minute + 4*time.Minute,
		})
	}
	for m := 1; m <= 10; m++ {
		tick(g, m, float64(m)/60)
	}
	for m := 11; m <= 25; m++ {
		frac := 10.0/60 + float64(m-10)/120
		tick(g, m, frac)
		if len(g.events) > 0 {
			break
		}
	}
	if g.Mode() != GuardPrimary {
		t.Fatalf("mode = %v after reprofile, want primary", g.Mode())
	}
	if gotGen != 1 {
		t.Fatalf("rebuild generation = %d, want 1", gotGen)
	}
	if gotProfile == nil || gotProfile == g.cfg.Prior {
		t.Fatalf("rebuild did not receive a blended profile")
	}
	evs := g.Events()
	if len(evs) != 1 || evs[0].Kind != "reprofile" || evs[0].LiveSamples != 8 {
		t.Fatalf("unexpected event log: %+v", evs)
	}
	// The rebuilt (accurate) model should keep the guard in primary as the
	// slow progress continues.
	for m := 26; m <= 40; m++ {
		frac := 10.0/60 + float64(m-10)/120
		if d := tick(g, m, frac); d.Mode != "primary" {
			t.Fatalf("minute %d: rebuilt model went stale again: %+v", m, g.Events())
		}
	}
}

func TestGuardPanicsWhenDeadlineAtRisk(t *testing.T) {
	// Deadline so tight that even max allocation misses once drift appears.
	g := guardFixture(t, 40*time.Minute, nil)
	for m := 1; m <= 8; m++ {
		tick(g, m, float64(m)/60)
	}
	var last Decision
	lastM := 0
	for m := 9; m <= 45; m++ {
		frac := 8.0/60 + float64(m-8)/240 // progress at quarter rate
		last, lastM = tick(g, m, frac), m
		if g.Mode() == GuardPanic {
			break
		}
	}
	if g.Mode() != GuardPanic {
		t.Fatalf("guard never panicked; events: %+v", g.Events())
	}
	if last.Granted != 40 {
		t.Fatalf("panic granted %d, want max allocation 40", last.Granted)
	}
	found := false
	for _, e := range g.Events() {
		if e.Kind == "panic" && e.To == GuardPanic {
			found = true
		}
	}
	if !found {
		t.Fatalf("no panic event logged: %+v", g.Events())
	}
	// Panic persists while the prediction still misses.
	frac := 8.0/60 + float64(lastM+1-8)/240
	if d := tick(g, lastM+1, frac); d.Granted != 40 || d.Mode != "panic" {
		t.Fatalf("panic did not persist: %+v", d)
	}
}

func TestNewGuardValidation(t *testing.T) {
	if _, err := NewGuard(GuardConfig{}); err == nil {
		t.Fatalf("NewGuard accepted nil controller")
	}
	ctrl, err := NewController(Config{
		Predictor:  &linearPred{K: time.Hour},
		Utility:    utility.Deadline(time.Hour),
		Candidates: []int{10},
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	if _, err := NewGuard(GuardConfig{Controller: ctrl}); err == nil {
		t.Fatalf("NewGuard accepted nil prior")
	}
}

// TestGuardRebuildBackoffAllocatesNothing: a stale model inside the rebuild
// backoff is refused before the live trace is windowed, so the refusal
// costs no allocation however many live observations have accumulated;
// once the backoff has passed, the rebuild still happens.
func TestGuardRebuildBackoffAllocatesNothing(t *testing.T) {
	builds := 0
	rebuild := func(p *profile.Profile, gen int) (model.Predictor, error) {
		builds++
		return &linearPred{K: 60 * time.Minute}, nil
	}
	g := guardFixture(t, 300*time.Minute, rebuild)
	g.minLive = 5
	for i := 0; i < 50; i++ {
		g.ObserveTask(trace.TaskEvent{
			Stage: 0, Task: i % 10,
			Started: time.Duration(i) * time.Second,
			Ended:   time.Duration(i)*time.Second + time.Minute,
		})
	}
	st := model.State{Elapsed: 2 * time.Minute, FracDone: []float64{0.1}}
	g.maybeRebuild(st, 1)
	if builds != 1 {
		t.Fatal("first rebuild with enough live samples did not happen")
	}
	st.Elapsed += rebuildBackoff / 2
	allocs := testing.AllocsPerRun(100, func() {
		g.maybeRebuild(st, 1)
	})
	if builds != 1 {
		t.Fatal("rebuild inside the backoff")
	}
	if allocs != 0 {
		t.Errorf("maybeRebuild inside the backoff = %v allocs/run, want 0", allocs)
	}
	st.Elapsed += rebuildBackoff
	if g.maybeRebuild(st, 1); builds != 2 {
		t.Fatalf("rebuild after the backoff: builds = %d, want 2", builds)
	}
}

// TestGuardRebuildBackoffBoundary pins the backoff's exact boundary. At a
// 30 s control period the backoff binds: a model that stays stale after a
// rebuild refills the detector window 6 ticks (3 minutes) later, inside the
// 4-minute backoff, so a stale tick is refused. Then maybeRebuild refuses
// 1 ns before lastBuild + rebuildBackoff and rebuilds exactly at it.
func TestGuardRebuildBackoffBoundary(t *testing.T) {
	const period = 30 * time.Second
	builds := 0
	rebuild := func(p *profile.Profile, gen int) (model.Predictor, error) {
		builds++
		return &linearPred{K: 60 * time.Minute}, nil // as stale as the prior model
	}
	g := guardFixture(t, 300*time.Minute, rebuild)
	g.minLive = 5
	for i := 0; i < 40; i++ {
		g.ObserveTask(trace.TaskEvent{
			Stage: 0, Task: i % 10,
			Started: time.Duration(i) * 10 * time.Second,
			Ended:   time.Duration(i+1) * 10 * time.Second,
		})
	}
	// Progress at half the model's rate: every slip is 0.5, above the
	// threshold once the window fills.
	state := func(e time.Duration) model.State {
		return model.State{Elapsed: e, FracDone: []float64{e.Minutes() / 120}}
	}
	refused := false
	e := time.Duration(0)
	for builds < 1 || e+period < g.lastBuild+rebuildBackoff {
		e += period
		g.Decide(state(e))
		refused = refused || builds == 1 && g.stale
	}
	if builds != 1 || !refused {
		t.Fatalf("at a %v period: %d rebuilds by %v, stale tick refused %v; want 1 rebuild and a refusal",
			period, builds, e, refused)
	}
	boundary := g.lastBuild + rebuildBackoff
	if g.maybeRebuild(state(boundary-1), 1); builds != 1 {
		t.Fatalf("rebuilt 1 ns before the backoff ends (last build %v)", g.lastBuild)
	}
	if g.maybeRebuild(state(boundary), 1); builds != 2 || g.lastBuild != boundary {
		t.Fatalf("at the backoff's end %v: builds = %d, last build %v; want 2 at %v",
			boundary, builds, g.lastBuild, boundary)
	}
}

// TestGuardObserveReusesStateBuffer: the detector's previous-state copy is
// refilled in place each tick instead of reallocated.
func TestGuardObserveReusesStateBuffer(t *testing.T) {
	g := guardFixture(t, 300*time.Minute, nil)
	st := model.State{Elapsed: time.Minute, FracDone: []float64{0.01}}
	g.observe(st)
	allocs := testing.AllocsPerRun(100, func() {
		st.Elapsed += time.Minute
		st.FracDone[0] += 0.001
		g.observe(st)
	})
	if allocs != 0 {
		t.Errorf("observe = %v allocs/tick, want 0", allocs)
	}
	if g.prevState.Elapsed != st.Elapsed || g.prevState.FracDone[0] != st.FracDone[0] {
		t.Errorf("prevState = %+v, want a copy of %+v", g.prevState, st)
	}
	st.FracDone[0] = 0.9
	if g.prevState.FracDone[0] == 0.9 {
		t.Error("prevState aliases the caller's FracDone")
	}
}

// TestGuardRetiresRebuiltTables: a guard with a Builder retires each
// rebuilt table into it once a newer one replaces it, and its last one at
// Close, with its live trace's buffer. The next guard on the Builder gets
// that buffer back, and the next two builds go into the two retired
// tables, so they allocate nothing.
func TestGuardRetiresRebuiltTables(t *testing.T) {
	b := new(model.Builder)
	cfg := guardFixtureConfig(t, 300*time.Minute, nil)
	ind := progress.NewTotalWork(cfg.Prior)
	cpaCfg := model.CPAConfig{Allocs: []int{10, 20, 40}, RunsPerAlloc: 3, Seed: 8, Parallelism: 1}
	build := func() (*model.CPA, error) { return b.BuildCPA(cfg.Prior, ind, cpaCfg) }
	var built []*model.CPA
	cfg.RebuildPrimary = func(*profile.Profile, int) (model.Predictor, error) {
		c, err := build()
		built = append(built, c)
		return c, err
	}
	cfg.Builder = b
	g, err := NewGuard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Prior.Job.TotalTasks(); cap(g.live.Events) < n {
		t.Fatalf("live trace holds %d events, want room for the plan's %d tasks", cap(g.live.Events), n)
	}
	g.minLive = 5
	for i := 0; i < 20; i++ {
		g.ObserveTask(trace.TaskEvent{
			Stage: 0, Task: i % 10,
			Started: time.Duration(i) * time.Second,
			Ended:   time.Duration(i)*time.Second + time.Minute,
		})
	}
	st := model.State{Elapsed: 2 * time.Minute, FracDone: []float64{0.1}}
	g.maybeRebuild(st, 1)
	st.Elapsed += rebuildBackoff
	g.maybeRebuild(st, 1)
	if len(built) != 2 || g.cfg.Controller.Predictor() != built[1] {
		t.Fatalf("%d rebuilds, want 2 with the controller on the last", len(built))
	}
	live := g.live.Events
	g.Close()

	next, err := NewGuard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.live.Events) != 0 || &next.live.Events[:1][0] != &live[:1][0] {
		t.Error("the next guard on the Builder did not get the closed guard's live-trace buffer")
	}
	// AllocsPerRun builds once before it counts, so the counted build is
	// the second, into the second retired table.
	if got := testing.AllocsPerRun(1, func() {
		if _, err := build(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("build after the guard closed = %v allocs, want 0: both rebuilt tables retired", got)
	}
}
