package control

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

// linearPred is a synthetic predictor for a single-stage job that finishes
// in K at any allocation: Remaining = (1 − p) · K. A job progressing at rate
// 1/K per unit time makes it perfectly calibrated; slower progress makes it
// stale.
type linearPred struct {
	K time.Duration
}

func (f linearPred) Remaining(st model.State, a int, q float64) time.Duration {
	p := st.FracDone[0]
	if p > 1 {
		p = 1
	}
	return time.Duration((1 - p) * float64(f.K))
}

func (f linearPred) ExpectedUtility(st model.State, a int, slack float64, u utility.Fn) float64 {
	rem := f.Remaining(st, a, 1)
	return u.Utility(st.Elapsed + time.Duration(float64(rem)*slack))
}

func guardFixture(t *testing.T, deadline time.Duration, rebuild func(p *profile.Profile, gen int) (model.Predictor, error)) *Guard {
	t.Helper()
	job := dag.NewBuilder("guard-test").Stage("only", 10).MustBuild()
	prior := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 2 * time.Minute}},
	})
	ctrl, err := NewController(Config{
		Predictor:  linearPred{K: 60 * time.Minute},
		Utility:    utility.Deadline(deadline),
		Candidates: []int{10, 20, 40},
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	g, err := NewGuard(GuardConfig{
		Controller:     ctrl,
		Prior:          prior,
		RebuildPrimary: rebuild,
	})
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	return g
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
		return linearPred{K: 120 * time.Minute}, nil
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
		Predictor:  linearPred{K: time.Hour},
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
		return linearPred{K: 60 * time.Minute}, nil
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
