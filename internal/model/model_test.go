package model

import (
	"math"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
)

// deterministic two-stage profile: 20 x 30s map, barrier, 4 x 60s reduce.
// Total work 840s; critical path 90s.
func detProfile(t testing.TB) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("det").
		Stage("map", 20).
		Stage("reduce", 4).
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 30 * time.Second}},
		{Exec: stats.Point{V: 60 * time.Second}},
	})
}

// noisyProfile has heavy-tailed stages for distribution-sensitive tests.
func noisyProfile(t testing.TB) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("noisy").
		Stage("map", 40).
		Stage("reduce", 8).
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(10*time.Second, 40*time.Second), FailureProb: 0.02},
		{Exec: stats.LognormalFromMedian(20*time.Second, 50*time.Second)},
	})
}

func TestOracle(t *testing.T) {
	cases := []struct {
		work, d time.Duration
		want    int
	}{
		{time.Hour, time.Hour, 1},
		{10 * time.Hour, time.Hour, 10},
		{61 * time.Minute, time.Hour, 2}, // ceil
		{0, time.Hour, 0},
		{time.Hour, 0, 0},
	}
	for _, c := range cases {
		if got := Oracle(c.work, c.d); got != c.want {
			t.Errorf("Oracle(%v, %v) = %d, want %d", c.work, c.d, got, c.want)
		}
	}
}

func TestImpactAboveOracle(t *testing.T) {
	if got := ImpactAboveOracle(100, 75); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("impact = %v", got)
	}
	if got := ImpactAboveOracle(50, 75); got != 0 {
		t.Errorf("below-oracle impact = %v, want 0", got)
	}
	if got := ImpactAboveOracle(0, 10); got != 0 {
		t.Errorf("zero alloc = %v", got)
	}
}

func TestAmdahlEstimate(t *testing.T) {
	p := detProfile(t)
	m := NewAmdahl(p)
	// At start: S_0 = 30+60 = 90s, P_0 = 840s.
	got := m.Estimate([]float64{0, 0}, 10)
	want := 90*time.Second + 84*time.Second
	if got != want {
		t.Errorf("Estimate(0, 10) = %v, want %v", got, want)
	}
	// Map done: S = 60s, P = 240s; a=4 -> 60+60=120s.
	got = m.Estimate([]float64{1, 0}, 4)
	if got != 120*time.Second {
		t.Errorf("Estimate(map done, 4) = %v, want 120s", got)
	}
	// All done: 0.
	if got := m.Estimate([]float64{1, 1}, 4); got != 0 {
		t.Errorf("Estimate(done) = %v", got)
	}
	// a < 1 clamps.
	if got := m.Estimate([]float64{1, 0}, 0); got != 60*time.Second+240*time.Second {
		t.Errorf("Estimate(a=0) = %v", got)
	}
	// nil fs treated as all-zero.
	if got := m.Estimate(nil, 10); got != want {
		t.Errorf("Estimate(nil) = %v, want %v", got, want)
	}
}

func TestAmdahlPredictorInterface(t *testing.T) {
	p := detProfile(t)
	var pred Predictor = NewAmdahl(p)
	st := State{Elapsed: time.Minute, FracDone: []float64{0.5, 0}}
	r1 := pred.Remaining(st, 10, 0.5)
	r2 := pred.Remaining(st, 10, 0.99)
	if r1 != r2 {
		t.Error("analytic model must be quantile-invariant")
	}
	u := utility.Deadline(10 * time.Minute)
	// More allocation must not lower expected utility for this job.
	u4 := pred.ExpectedUtility(st, 4, 1.0, u)
	u40 := pred.ExpectedUtility(st, 40, 1.0, u)
	if u40 < u4 {
		t.Errorf("utility decreased with allocation: %v -> %v", u4, u40)
	}
}

func buildTestCPA(t testing.TB, p *profile.Profile, allocs []int) *CPA {
	t.Helper()
	c, err := new(Builder).BuildCPA(p, progress.NewTotalWorkWithQ(p), CPAConfig{
		Allocs:       allocs,
		RunsPerAlloc: 6,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildCPAValidation(t *testing.T) {
	p := detProfile(t)
	ind := progress.NewTotalWorkWithQ(p)
	if _, err := new(Builder).BuildCPA(nil, ind, CPAConfig{Allocs: []int{1}}); err == nil {
		t.Error("nil profile must fail")
	}
	if _, err := new(Builder).BuildCPA(p, nil, CPAConfig{Allocs: []int{1}}); err == nil {
		t.Error("nil indicator must fail")
	}
	if _, err := new(Builder).BuildCPA(p, ind, CPAConfig{}); err == nil {
		t.Error("empty alloc grid must fail")
	}
	if _, err := new(Builder).BuildCPA(p, ind, CPAConfig{Allocs: []int{5, 3}}); err == nil {
		t.Error("non-ascending grid must fail")
	}
	if _, err := new(Builder).BuildCPA(p, ind, CPAConfig{Allocs: []int{0, 3}}); err == nil {
		t.Error("non-positive alloc must fail")
	}
	if _, err := new(Builder).BuildCPAs(p, nil, CPAConfig{Allocs: []int{1}}); err == nil {
		t.Error("an empty indicator list must fail")
	}
	if _, err := new(Builder).BuildCPAs(p, []progress.Indicator{ind, nil}, CPAConfig{Allocs: []int{1}}); err == nil {
		t.Error("a nil indicator in the list must fail")
	}
}

func TestCPARemainingShrinksWithProgress(t *testing.T) {
	p := detProfile(t)
	c := buildTestCPA(t, p, []int{4, 8, 16})
	st0 := State{Elapsed: 0, FracDone: []float64{0, 0}}
	stMid := State{Elapsed: 5 * time.Minute, FracDone: []float64{1, 0}}
	stEnd := State{Elapsed: 9 * time.Minute, FracDone: []float64{1, 1}}
	r0 := c.Remaining(st0, 8, 0.5)
	rMid := c.Remaining(stMid, 8, 0.5)
	rEnd := c.Remaining(stEnd, 8, 0.5)
	if !(r0 > rMid && rMid > rEnd) {
		t.Errorf("remaining not shrinking: %v -> %v -> %v", r0, rMid, rEnd)
	}
	if rEnd != 0 {
		t.Errorf("remaining at completion = %v, want 0", rEnd)
	}
}

func TestCPARemainingShrinksWithAllocation(t *testing.T) {
	p := detProfile(t)
	c := buildTestCPA(t, p, []int{2, 8, 20})
	st := State{FracDone: []float64{0, 0}}
	r2 := c.Remaining(st, 2, 0.5)
	r20 := c.Remaining(st, 20, 0.5)
	if r20 >= r2 {
		t.Errorf("more tokens should predict faster completion: a=2 %v vs a=20 %v", r2, r20)
	}
	// The deterministic job at a=20 finishes in exactly 90s; C(0, a) also
	// holds samples from t=10s and t=20s (progress still 0), so the
	// worst-case quantile — not the median — recovers the full latency.
	if got := c.Remaining(st, 20, 1.0); got != 90*time.Second {
		t.Errorf("a=20 worst-case remaining = %v, want 90s", got)
	}
}

func TestCPAAccuracyOnDeterministicJob(t *testing.T) {
	p := detProfile(t)
	c := buildTestCPA(t, p, []int{4})
	// At alloc 4: 5 map waves (150s) + 1 reduce wave (60s) = 210s.
	got := c.Remaining(State{FracDone: []float64{0, 0}}, 4, 1.0)
	if got != 210*time.Second {
		t.Errorf("predicted %v, want 210s", got)
	}
}

func TestCPASnapAlloc(t *testing.T) {
	p := detProfile(t)
	c := buildTestCPA(t, p, []int{4, 8, 16})
	cases := []struct{ in, want int }{
		{1, 4}, {4, 4}, {5, 4}, {7, 8}, {6, 4}, {12, 8}, {13, 16}, {99, 16},
	}
	for _, cse := range cases {
		if got := c.SnapAlloc(cse.in); got != cse.want {
			t.Errorf("SnapAlloc(%d) = %d, want %d", cse.in, got, cse.want)
		}
	}
}

func TestCPAExpectedUtility(t *testing.T) {
	p := noisyProfile(t)
	c := buildTestCPA(t, p, []int{2, 10, 30})
	st := State{FracDone: []float64{0, 0}}
	// A generous deadline yields utility ~1 at high allocation.
	easy := utility.Deadline(4 * time.Hour)
	if got := c.ExpectedUtility(st, 30, 1.2, easy); got < 0.99 {
		t.Errorf("easy deadline utility = %v", got)
	}
	// An infeasible deadline yields negative utility at any allocation.
	hard := utility.Deadline(time.Second)
	if got := c.ExpectedUtility(st, 30, 1.2, hard); got >= 0 {
		t.Errorf("impossible deadline utility = %v", got)
	}
	// Higher slack never increases expected utility (monotone curve).
	u1 := c.ExpectedUtility(st, 10, 1.0, utility.Deadline(10*time.Minute))
	u2 := c.ExpectedUtility(st, 10, 1.5, utility.Deadline(10*time.Minute))
	if u2 > u1+1e-9 {
		t.Errorf("slack increased utility: %v -> %v", u1, u2)
	}
}

func TestCPAWorstCaseAboveMedian(t *testing.T) {
	p := noisyProfile(t)
	c := buildTestCPA(t, p, []int{10})
	st := State{FracDone: []float64{0, 0}}
	med := c.Remaining(st, 10, 0.5)
	worst := c.Remaining(st, 10, 1.0)
	if worst < med {
		t.Errorf("worst case %v below median %v", worst, med)
	}
	if worst == med {
		t.Errorf("noisy job should show spread (median %v == worst %v)", med, worst)
	}
}

func TestCPAEmptyBucketWidening(t *testing.T) {
	p := detProfile(t)
	c := buildTestCPA(t, p, []int{8})
	// Progress 0.97 lands in a bucket that may have no samples (the job jumps
	// from reduce-running to done); the query must widen, not return junk.
	st := State{FracDone: []float64{1, 0.9}}
	got := c.Remaining(st, 8, 0.5)
	if got < 0 || got > 5*time.Minute {
		t.Errorf("widened remaining = %v out of sane range", got)
	}
	if len(c.Allocs()) != 1 || c.Allocs()[0] != 8 {
		t.Errorf("Allocs = %v", c.Allocs())
	}
}

func TestCPADeterministicRebuild(t *testing.T) {
	p := noisyProfile(t)
	a := buildTestCPA(t, p, []int{5, 15})
	b := buildTestCPA(t, p, []int{5, 15})
	st := State{FracDone: []float64{0.3, 0}}
	if a.Remaining(st, 5, 0.9) != b.Remaining(st, 5, 0.9) {
		t.Error("same seed must rebuild identical tables")
	}
}
