package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
)

// 20 x 30s map -> barrier -> 4 x 60s reduce; total work 840s, CP 90s.
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

func newJockey(t testing.TB) *Jockey {
	t.Helper()
	jk, err := New(detProfile(t), Options{
		MaxTokens:    20,
		RunsPerAlloc: 3,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return jk
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil profile must fail")
	}
	if _, err := New(detProfile(t), Options{Indicator: "bogus"}); err == nil {
		t.Error("unknown indicator must fail")
	}
}

// TestNewIndicatorsMatchesNew: each runtime of a shared build is the
// runtime New builds for that indicator under the same Options.
func TestNewIndicatorsMatchesNew(t *testing.T) {
	p := detProfile(t)
	opts := Options{MaxTokens: 20, RunsPerAlloc: 3, Seed: 5}
	names := []IndicatorName{CP, MinStage, VertexFrac}
	js, err := NewIndicators(p, opts, names...)
	if err != nil {
		t.Fatal(err)
	}
	for j, name := range names {
		o := opts
		o.Indicator = name
		want, err := New(p, o)
		if err != nil {
			t.Fatal(err)
		}
		if js[j].opts != want.opts || !reflect.DeepEqual(js[j].Model(), want.Model()) {
			t.Errorf("%s: shared-build runtime differs from New", name)
		}
	}
	if _, err := NewIndicators(p, opts); err == nil {
		t.Error("no indicator must fail")
	}
	if _, err := NewIndicators(p, opts, CP, "bogus"); err == nil {
		t.Error("unknown indicator must fail")
	}
}

func TestDefaultGrid(t *testing.T) {
	g := DefaultGrid(100)
	if g[0] != 1 {
		t.Errorf("grid starts at %d", g[0])
	}
	if g[len(g)-1] != 100 {
		t.Errorf("grid ends at %d", g[len(g)-1])
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not ascending: %v", g)
		}
	}
	if len(g) < 8 || len(g) > 25 {
		t.Errorf("grid has %d points: %v", len(g), g)
	}
}

// TestBuildIndicatorAll pins each name to its indicator by behaviour: on
// fixed completion fractions, BuildIndicator's indicator reads what the
// direct constructor's does. The minstage variants take their spans from a
// run at the oracle allocation for four critical paths and from an
// unconstrained run; minstage reads differently on the two, so matching
// both constructors tells the variants apart.
func TestBuildIndicatorAll(t *testing.T) {
	p := detProfile(t)
	constrained, err := sim.NewRunner().Run(sim.Config{Profile: p, Alloc: model.Oracle(p.TotalWork(), 4*p.CriticalPath()), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	unconstrained, err := sim.RunInfinite(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	spans := progress.SpansFromTrace(constrained, p.Job.NumStages())
	infSpans := progress.SpansFromTrace(unconstrained, p.Job.NumStages())
	if fs := []float64{0.5, 0}; progress.NewMinStage(spans).Progress(fs) == progress.NewMinStage(infSpans).Progress(fs) {
		t.Fatalf("minstage reads the same at %v on spans %v and %v; the variants cannot be told apart", fs, spans, infSpans)
	}
	fracs := [][]float64{{0, 0}, {0.5, 0}, {1, 0}, {1, 0.5}, {0.25, 0.75}, {1, 1}}
	for _, c := range []struct {
		name IndicatorName
		want progress.Indicator
	}{
		{TotalWorkWithQ, progress.NewTotalWorkWithQ(p)},
		{TotalWork, progress.NewTotalWork(p)},
		{VertexFrac, progress.NewVertexFrac(p)},
		{CP, progress.NewCP(p)},
		{MinStage, progress.NewMinStage(spans)},
		{MinStageInf, progress.NewMinStage(infSpans)},
	} {
		ind, err := BuildIndicator(c.name, p, 3)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for _, fs := range fracs {
			if got, want := ind.Progress(fs), c.want.Progress(fs); got != want {
				t.Errorf("%s: Progress(%v) = %v, want %v", c.name, fs, got, want)
			}
		}
	}
	if _, err := BuildIndicator("nope", p, 1); err == nil {
		t.Error("unknown name must fail")
	}
}

func TestPredictLatency(t *testing.T) {
	jk := newJockey(t)
	// Deterministic job: at 20 tokens the worst case is exactly 90s.
	if got := jk.PredictLatency(20, 1.0); got != 90*time.Second {
		t.Errorf("PredictLatency(20) = %v, want 90s", got)
	}
	lo := jk.PredictLatency(1, 1.0)
	if lo <= jk.PredictLatency(20, 1.0) {
		t.Errorf("serial latency %v should exceed parallel", lo)
	}
}

func TestFeasibleAndRequiredAllocation(t *testing.T) {
	jk := newJockey(t)
	if jk.Feasible(30 * time.Second) {
		t.Error("deadline below critical path must be infeasible")
	}
	if !jk.Feasible(5 * time.Minute) {
		t.Error("5-minute deadline is feasible")
	}
	// 840s of work, 90s critical path: a 3-minute deadline needs several
	// tokens; a 30-minute deadline needs 1.
	need, ok := jk.RequiredAllocation(30 * time.Minute)
	if !ok || need != 1 {
		t.Errorf("loose deadline needs %d (%v)", need, ok)
	}
	tight, ok := jk.RequiredAllocation(3 * time.Minute)
	if !ok || tight <= 1 {
		t.Errorf("tight deadline needs %d (%v)", tight, ok)
	}
	if _, ok := jk.RequiredAllocation(10 * time.Second); ok {
		t.Error("impossible deadline must not fit")
	}
}

func TestEndToEndOnCluster(t *testing.T) {
	jk := newJockey(t)
	pol, err := jk.Policy(4 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Machines: 5, SlotsPerMachine: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit(cluster.JobConfig{
		Profile:  jk.Profile(),
		Policy:   pol,
		Deadline: 4 * time.Minute,
		Tracked:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := h.Result()
	if !r.Met {
		t.Errorf("missed SLO: completion %v", r.Completion)
	}
}

func TestAccessors(t *testing.T) {
	jk := newJockey(t)
	if jk.Profile() == nil || jk.Model() == nil || jk.Indicator() == nil {
		t.Error("nil accessor")
	}
	if len(jk.Grid()) == 0 {
		t.Error("empty grid")
	}
}

func TestMinStageIndicatorUsesConstrainedRun(t *testing.T) {
	p := detProfile(t)
	ind, err := BuildIndicator(MinStage, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: progress moves from 0 to 1.
	if got := ind.Progress([]float64{0, 0}); got != 0 {
		t.Errorf("initial = %v", got)
	}
	if got := ind.Progress([]float64{1, 1}); got != 1 {
		t.Errorf("final = %v", got)
	}
	mid := ind.Progress([]float64{1, 0})
	if mid <= 0 || mid >= 1 {
		t.Errorf("mid progress = %v", mid)
	}
}

// TestGuardSharedBuilderMatchesOwn: the builder a guard rebuilds on holds
// memory only. Two drifting jobs whose guards share one builder, on a
// builder warm from an earlier replay too, run exactly as when each guard
// builds on a builder of its own.
func TestGuardSharedBuilderMatchesOwn(t *testing.T) {
	job := dag.NewBuilder("drifting").
		Stage("map", 200).
		Stage("reduce", 20).
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(20*time.Second, 60*time.Second)},
		{Exec: stats.LognormalFromMedian(40*time.Second, 90*time.Second)},
	})
	jk, err := New(p, Options{MaxTokens: 30, RunsPerAlloc: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 60 * time.Minute
	type outcome struct {
		res    []cluster.Result
		events [][]control.GuardEvent
	}
	replay := func(builders ...*model.Builder) outcome {
		c, err := cluster.New(cluster.Config{Machines: 8, SlotsPerMachine: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		var hs []*cluster.Handle
		var guards []*control.Guard
		for i, b := range builders {
			pol, err := jk.Policy(deadline)
			if err != nil {
				t.Fatal(err)
			}
			g, err := jk.Guard(pol.(*control.Controller), b)
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.Submit(cluster.JobConfig{
				Profile:     p,
				Policy:      g,
				Deadline:    deadline,
				Start:       time.Duration(i) * time.Minute,
				Tracked:     true,
				Drifts:      []cluster.StageDrift{{At: 5 * time.Minute, Stage: -1, Factor: 3}},
				OnTaskEvent: g.ObserveTask,
			})
			if err != nil {
				t.Fatal(err)
			}
			hs, guards = append(hs, h), append(guards, g)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var o outcome
		for i, h := range hs {
			o.res = append(o.res, h.Result())
			o.events = append(o.events, guards[i].Events())
		}
		return o
	}
	own := replay(nil, nil)
	for i, evs := range own.events {
		rebuilds := 0
		for _, e := range evs {
			if e.Kind == control.GuardEventReprofile {
				rebuilds++
			}
		}
		if rebuilds == 0 {
			t.Fatalf("job %d's guard never rebuilt; the comparison needs both guards to rebuild", i)
		}
	}
	shared := new(model.Builder)
	for round := range 2 {
		if got := replay(shared, shared); !reflect.DeepEqual(got, own) {
			t.Errorf("round %d: guards sharing one builder ran differently from guards with their own", round)
		}
	}
}
