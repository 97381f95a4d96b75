package control

import (
	"math"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
)

// testPredictor: deterministic 20x30s map + 4x60s reduce job via Amdahl.
// Total work 840s, critical path 90s.
func testSetup(t testing.TB) (*profile.Profile, model.Predictor) {
	t.Helper()
	job := dag.NewBuilder("det").
		Stage("map", 20).
		Stage("reduce", 4).
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 30 * time.Second}},
		{Exec: stats.Point{V: 60 * time.Second}},
	})
	return p, model.NewAmdahl(p)
}

func candidates() []int {
	out := make([]int, 100)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	_, pred := testSetup(t)
	u := utility.Deadline(time.Hour)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no predictor", Config{Utility: u, Candidates: []int{1}}},
		{"no utility", Config{Predictor: pred, Candidates: []int{1}}},
		{"no candidates", Config{Predictor: pred, Utility: u}},
		{"descending", Config{Predictor: pred, Utility: u, Candidates: []int{5, 2}}},
		{"zero candidate", Config{Predictor: pred, Utility: u, Candidates: []int{0, 2}}},
		{"slack below 1", Config{Predictor: pred, Utility: u, Candidates: []int{1}, Slack: 0.5}},
		{"hysteresis above 1", Config{Predictor: pred, Utility: u, Candidates: []int{1}, Hysteresis: 1.5}},
		{"NaN slack", Config{Predictor: pred, Utility: u, Candidates: []int{1}, Slack: math.NaN()}},
		{"infinite slack", Config{Predictor: pred, Utility: u, Candidates: []int{1}, Slack: math.Inf(1)}},
		{"NaN hysteresis", Config{Predictor: pred, Utility: u, Candidates: []int{1}, Hysteresis: math.NaN()}},
	}
	for _, c := range cases {
		if _, err := NewController(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewController(Config{Predictor: pred, Utility: u, Candidates: candidates()}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestFirstDecisionJumpsToRaw(t *testing.T) {
	_, pred := testSetup(t)
	// Deadline 5 min; work 840s with S=90s. Amdahl with slack 1.2:
	// need 1.2*(90 + 840/a) <= 300 - 180 (deadzone 3m shifts to 2m? no:
	// deadline 5m, deadzone 3m -> effective 2m). Keep deadzone 0 for clarity:
	// 1.2*(90+840/a) <= 300 -> 840/a <= 160 -> a >= 5.25 -> a = 6.
	c, err := NewController(Config{
		Predictor:  pred,
		Utility:    utility.Deadline(5 * time.Minute),
		Candidates: candidates(),
		Slack:      1.2,
		DeadZone:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Decide(model.State{FracDone: []float64{0, 0}})
	if d.Raw != 6 || d.Granted != 6 {
		t.Errorf("first decision = %+v, want raw=granted=6", d)
	}
	if d.Predicted <= 0 {
		t.Error("predicted completion missing")
	}
}

func TestHysteresisSmoothsChanges(t *testing.T) {
	_, pred := testSetup(t)
	c, err := NewController(Config{
		Predictor:  pred,
		Utility:    utility.Deadline(5 * time.Minute),
		Candidates: candidates(),
		Slack:      1.2,
		Hysteresis: 0.2,
		DeadZone:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := c.Decide(model.State{FracDone: []float64{0, 0}})
	// Suppose the map stage instantly completes: far ahead of schedule, the
	// raw allocation collapses, but the grant should move only ~20% of the
	// way down per tick.
	st := model.State{Elapsed: 30 * time.Second, FracDone: []float64{1, 0}}
	second := c.Decide(st)
	if second.Raw >= first.Raw {
		t.Fatalf("raw should drop: %d -> %d", first.Raw, second.Raw)
	}
	drop := first.Granted - second.Granted
	fullDrop := first.Granted - second.Raw
	if drop <= 0 || drop > fullDrop/3 {
		t.Errorf("grant dropped %d of %d; hysteresis should damp to ~20%%", drop, fullDrop)
	}
	// Repeated ticks converge towards raw.
	var last Decision
	for i := 0; i < 50; i++ {
		last = c.Decide(st)
	}
	if last.Granted != last.Raw {
		t.Errorf("grant %d did not converge to raw %d", last.Granted, last.Raw)
	}
}

func TestNoHysteresisJumpsImmediately(t *testing.T) {
	_, pred := testSetup(t)
	c, err := NewController(Config{
		Predictor:  pred,
		Utility:    utility.Deadline(5 * time.Minute),
		Candidates: candidates(),
		Hysteresis: 1.0,
		DeadZone:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Decide(model.State{FracDone: []float64{0, 0}})
	st := model.State{Elapsed: 30 * time.Second, FracDone: []float64{1, 0}}
	d := c.Decide(st)
	if d.Granted != d.Raw {
		t.Errorf("α=1 must jump to raw: granted %d raw %d", d.Granted, d.Raw)
	}
}

func TestDeadZoneHoldsWithinBand(t *testing.T) {
	_, pred := testSetup(t)
	c, err := NewController(Config{
		Predictor:  pred,
		Utility:    utility.Deadline(10 * time.Minute),
		Candidates: candidates(),
		Slack:      1.0,
		Hysteresis: 1.0,
		DeadZone:   3 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Initial decision against the shifted (7-minute) deadline:
	// 90 + 840/a <= 420 -> a = 3.
	first := c.Decide(model.State{FracDone: []float64{0, 0}})
	if first.Granted != 3 {
		t.Fatalf("initial grant = %d, want 3", first.Granted)
	}
	// 4 minutes in with only 10%% of the map done, the shifted-curve raw
	// allocation wants ~9 tokens, but the predicted completion at the
	// current grant (587s) still makes the *original* 600s deadline — the
	// job is less than D behind schedule, so the grant must hold.
	band := model.State{Elapsed: 4 * time.Minute, FracDone: []float64{0.1, 0}}
	d := c.Decide(band)
	if d.Raw <= first.Granted {
		t.Fatalf("raw should want to rise in the band: %d", d.Raw)
	}
	if d.Granted != first.Granted {
		t.Errorf("dead zone should hold the grant: %d -> %d (raw %d)", first.Granted, d.Granted, d.Raw)
	}
	// One minute later the predicted completion (647s) misses the original
	// deadline: now the controller must raise the grant.
	late := model.State{Elapsed: 5 * time.Minute, FracDone: []float64{0.1, 0}}
	d2 := c.Decide(late)
	if d2.Granted <= first.Granted {
		t.Errorf("grant must rise when more than D behind: %d -> %d", first.Granted, d2.Granted)
	}
}

// TestDeadZoneHoldsAtDeadline pins the band's closed upper end: a
// predicted completion at the current grant exactly at the deadline is not
// yet D behind schedule, so the grant holds; one nanosecond later it rises.
func TestDeadZoneHoldsAtDeadline(t *testing.T) {
	pred := &flatPredictor{work: 60 * time.Minute}
	c, err := NewController(Config{
		Predictor:  pred,
		Utility:    utility.Deadline(10 * time.Minute),
		Candidates: candidates(),
		Slack:      1.0,
		Hysteresis: 1.0,
		DeadZone:   3 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Against the shifted 7-minute deadline: 60m/a ≤ 7m -> a = 9.
	if first := c.Decide(model.State{}); first.Granted != 9 {
		t.Fatalf("initial grant = %d, want 9", first.Granted)
	}
	// 4m + 54m/9 = 10m exactly; the shifted curve wants 4m + 54m/a ≤ 7m,
	// a = 18.
	pred.work = 54 * time.Minute
	st := model.State{Elapsed: 4 * time.Minute}
	if p := c.PredictAt(st, 9); p != c.Deadline() {
		t.Fatalf("predicted completion at the grant = %v, want the deadline %v", p, c.Deadline())
	}
	d := c.Decide(st)
	if d.Raw != 18 || d.Granted != 9 || d.Mechanism != MechDeadZone {
		t.Errorf("at the deadline: raw %d granted %d by %q, want raw 18 held at 9 by %q", d.Raw, d.Granted, d.Mechanism, MechDeadZone)
	}
	st.Elapsed += time.Nanosecond
	if d := c.Decide(st); d.Granted != 18 || d.Mechanism != MechModel {
		t.Errorf("past the deadline: granted %d by %q, want 18 by %q", d.Granted, d.Mechanism, MechModel)
	}
}

func TestDeadZoneAllowsReleases(t *testing.T) {
	_, pred := testSetup(t)
	c, err := NewController(Config{
		Predictor:  pred,
		Utility:    utility.Deadline(5 * time.Minute),
		Candidates: candidates(),
		Slack:      1.0,
		Hysteresis: 1.0,
		DeadZone:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := c.Decide(model.State{FracDone: []float64{0, 0}})
	// The job runs far ahead of schedule: releasing resources must not be
	// blocked by the dead zone (cf. Fig. 6c).
	ahead := model.State{Elapsed: 30 * time.Second, FracDone: []float64{1, 0.5}}
	d := c.Decide(ahead)
	if d.Granted >= first.Granted {
		t.Errorf("grant should fall when ahead: %d -> %d", first.Granted, d.Granted)
	}
}

func TestChangeUtilityTightensDeadline(t *testing.T) {
	_, pred := testSetup(t)
	c, err := NewController(Config{
		Predictor:  pred,
		Utility:    utility.Deadline(20 * time.Minute),
		Candidates: candidates(),
		Hysteresis: 1.0,
		DeadZone:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := model.State{FracDone: []float64{0, 0}}
	loose := c.Decide(st)
	c.ChangeUtility(utility.Deadline(4 * time.Minute))
	tight := c.Decide(model.State{Elapsed: time.Minute, FracDone: []float64{0.2, 0}})
	if tight.Granted <= loose.Granted {
		t.Errorf("halved deadline must raise allocation: %d -> %d", loose.Granted, tight.Granted)
	}
}

func TestControllerWithSimulator(t *testing.T) {
	p, _ := testSetup(t)
	cpa, err := new(model.Builder).BuildCPA(p, progress.NewTotalWorkWithQ(p), model.CPAConfig{
		Allocs: []int{2, 8, 20}, RunsPerAlloc: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{
		Predictor:  cpa,
		Utility:    utility.Deadline(5 * time.Minute),
		Candidates: cpa.Allocs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Decide(model.State{FracDone: []float64{0, 0}})
	if d.Progress != 0 {
		t.Errorf("initial progress = %v", d.Progress)
	}
	d = c.Decide(model.State{Elapsed: time.Minute, FracDone: []float64{1, 0}})
	if d.Progress <= 0.5 {
		t.Errorf("map-done progress = %v, want > 0.5", d.Progress)
	}
}

func TestStaticPolicy(t *testing.T) {
	_, pred := testSetup(t)
	s, err := NewStatic(Config{
		Predictor:  pred,
		Utility:    utility.Deadline(5 * time.Minute),
		Candidates: candidates(),
		Slack:      1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := s.Decide(model.State{FracDone: []float64{0, 0}})
	if first.Granted != 6 {
		t.Errorf("static allocation = %d, want 6", first.Granted)
	}
	// The decision never changes, even if the job stalls or the deadline
	// moves.
	s.ChangeUtility(utility.Deadline(time.Minute))
	later := s.Decide(model.State{Elapsed: 4 * time.Minute, FracDone: []float64{0.1, 0}})
	if later.Granted != first.Granted {
		t.Errorf("static policy adapted: %d -> %d", first.Granted, later.Granted)
	}
}

func TestStaticConfigValidation(t *testing.T) {
	if _, err := NewStatic(Config{}); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestMaxAllocation(t *testing.T) {
	m, err := NewMaxAllocation(100)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Decide(model.State{})
	if d.Granted != 100 || d.Raw != 100 {
		t.Errorf("decision = %+v", d)
	}
	m.ChangeUtility(utility.Deadline(time.Minute)) // must not panic
	if _, err := NewMaxAllocation(0); err == nil {
		t.Error("zero tokens must fail")
	}
}

func TestUtilityKnee(t *testing.T) {
	if got := utilityKnee(utility.Deadline(time.Hour)); got != time.Hour {
		t.Errorf("knee = %v, want 1h", got)
	}
}
