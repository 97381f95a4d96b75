package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/workload"
)

// sharedEnv is reused across tests: building runtimes is the expensive part
// and the Env caches them.
var sharedEnv = NewEnv(7)

func TestEnvCaching(t *testing.T) {
	e := sharedEnv
	g1, err := e.Ground("A")
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := e.Ground("A")
	if g1 != g2 {
		t.Error("ground profile not cached")
	}
	r1, err := e.Runtime("A", "")
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e.Runtime("A", core.TotalWorkWithQ)
	if r1 != r2 {
		t.Error("runtime not cached across default/explicit indicator")
	}
	r3, err := e.Runtime("A", core.CP)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("different indicators must build different runtimes")
	}
	// All six runtimes of a job come from one pass under the default
	// runtime's seed, and each equals its own single build.
	train, err := e.Training("A")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		MaxTokens:    maxTokens,
		RunsPerAlloc: 8,
		Seed:         stats.DeriveSeed(e.Seed, "jockey", "A", string(core.TotalWorkWithQ)),
		Parallelism:  e.Parallelism,
	}
	for _, tc := range []struct {
		got *core.Jockey
		ind core.IndicatorName
	}{{r1, core.TotalWorkWithQ}, {r3, core.CP}} {
		opts.Indicator = tc.ind
		want, err := core.New(train, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.got.Model(), want.Model()) {
			t.Errorf("%s runtime's C(p,a) differs from core.New with the default runtime's seed", tc.ind)
		}
	}
}

func TestDeadlinesOrdered(t *testing.T) {
	short, long, err := sharedEnv.Deadlines("B")
	if err != nil {
		t.Fatal(err)
	}
	if short <= 0 || long != 2*short {
		t.Errorf("deadlines = %v, %v", short, long)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := sharedEnv.RunExec(NewExec(), SLORun{Job: "A", Policy: PolicyJockey}); err == nil {
		t.Error("missing deadline must fail")
	}
	if _, err := sharedEnv.RunExec(NewExec(), SLORun{Job: "ZZ", Deadline: time.Hour, Policy: PolicyJockey}); err == nil {
		t.Error("unknown job must fail")
	}
	// Knobs pass straight through to control.Config, whose range checks
	// reject them instead of silently running at the defaults.
	for _, k := range []Knobs{{Slack: -1}, {Hysteresis: -0.5}} {
		_, err := sharedEnv.RunExec(NewExec(), SLORun{Job: "A", Deadline: time.Hour, Policy: PolicyJockey, Knobs: k})
		if err == nil {
			t.Errorf("Knobs%+v must fail", k)
		}
	}
	// An input scale must be positive and finite: profile.Scale panics
	// on a negative one, and a NaN or infinite one makes nonsense times.
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		_, err := sharedEnv.RunExec(NewExec(), SLORun{Job: "A", Deadline: time.Hour, Policy: PolicyJockey, InputScale: scale})
		if err == nil || !strings.Contains(err.Error(), "job A") {
			t.Errorf("InputScale %v: err = %v, want one naming job A", scale, err)
		}
	}
	// A policy or indicator outside the known sets is rejected with an
	// error naming the job and the bad value.
	for _, r := range []SLORun{
		{Policy: "bogus"},
		{Policy: PolicyJockey, Knobs: Knobs{Indicator: "bogus"}},
		{Policy: PolicyJockeyGuarded, Knobs: Knobs{Indicator: "bogus"}},
	} {
		r.Job, r.Deadline = "A", time.Hour
		_, err := sharedEnv.RunExec(NewExec(), r)
		if err == nil || !strings.Contains(err.Error(), "job A") || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("policy %q, indicator %q: err = %v, want one naming job A and \"bogus\"",
				r.Policy, r.Knobs.Indicator, err)
		}
	}
}

// TestPoliciesConstructAndDiffer pins the four policies of the paper's
// comparison and the two Jockey variants to the policy type buildPolicy
// builds for them and the predictor type that policy decides with.
func TestPoliciesConstructAndDiffer(t *testing.T) {
	type built struct{ policy, predictor reflect.Type }
	var (
		ctrl = reflect.TypeOf(&control.Controller{})
		cpa  = reflect.TypeOf(&model.CPA{})
	)
	want := map[PolicyKind]built{
		PolicyJockey:        {ctrl, cpa},
		PolicyStatic:        {reflect.TypeOf(&control.Static{}), cpa},
		PolicyAmdahl:        {ctrl, reflect.TypeOf(&model.Amdahl{})},
		PolicyMax:           {reflect.TypeOf(&control.MaxAllocation{}), nil},
		PolicyJockeyGuarded: {reflect.TypeOf(&control.Guard{}), cpa},
		PolicyJockeyOnline:  {ctrl, reflect.TypeOf(&model.OnlineSim{})},
	}
	for _, kind := range slices.Concat(AllPolicies, []PolicyKind{PolicyJockeyGuarded, PolicyJockeyOnline}) {
		pol, err := sharedEnv.buildPolicy(SLORun{Job: "A", Deadline: time.Hour, Policy: kind}, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got, w := (built{reflect.TypeOf(pol), predictorType(pol)}), want[kind]; got != w {
			t.Errorf("policy %s builds %v on %v, want %v on %v", kind, got.policy, got.predictor, w.policy, w.predictor)
		}
	}
}

// predictorType reads the type of the predictor a policy decides with out
// of its unexported Config: a Controller's or Static's own, or that of the
// Controller a Guard wraps. It is nil for a policy without one.
func predictorType(pol control.Policy) reflect.Type {
	cfg := reflect.ValueOf(pol).Elem().FieldByName("cfg")
	if !cfg.IsValid() {
		return nil
	}
	if c := cfg.FieldByName("Controller"); c.IsValid() {
		cfg = c.Elem().FieldByName("cfg")
	}
	return cfg.FieldByName("Predictor").Elem().Type()
}

func TestRunDeterministic(t *testing.T) {
	short, _, _ := sharedEnv.Deadlines("B")
	r := SLORun{Job: "B", Deadline: short, Policy: PolicyJockey, Seed: 11}
	a, err := sharedEnv.RunExec(NewExec(), r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharedEnv.RunExec(NewExec(), r)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completion != b.Completion {
		t.Errorf("same run diverged: %v vs %v", a.Completion, b.Completion)
	}
}

// TestTaskEventsOnlyWhenAsked: a run records its SLO job's task events only
// with SLORun.TaskEvents set, and leaving them out changes nothing else. The
// events of the recorded run are pinned by a SHA-256 digest of their JSON,
// taken before runs could leave them out.
func TestTaskEventsOnlyWhenAsked(t *testing.T) {
	short, _, err := sharedEnv.Deadlines("B")
	if err != nil {
		t.Fatal(err)
	}
	// The guarded policy also reads the live task feed, which must not
	// depend on the recording.
	r := SLORun{Job: "B", Deadline: short, Policy: PolicyJockeyGuarded, Seed: 11}
	bare, err := sharedEnv.RunExec(NewExec(), r)
	if err != nil {
		t.Fatal(err)
	}
	r.TaskEvents = true
	full, err := sharedEnv.RunExec(NewExec(), r)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Trace == nil || len(bare.Trace.Events) != 0 || len(bare.Trace.Timeline) == 0 {
		t.Fatalf("without TaskEvents: trace %v, want a timeline and no events", bare.Trace)
	}
	data, err := json.Marshal(full.Trace.Events)
	if err != nil {
		t.Fatal(err)
	}
	const wantEvents, wantDigest = 1637, "1fdb8b25e8e0427b90f539405c532fb9cbc400a555997dacc3f1139cf6988759"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(full.Trace.Events) != wantEvents || got != wantDigest {
		t.Errorf("with TaskEvents: %d events with digest %s, want %d with %s", len(full.Trace.Events), got, wantEvents, wantDigest)
	}
	want := *full.Trace
	want.Events = nil
	if !reflect.DeepEqual(*bare.Trace, want) {
		t.Errorf("the trace without events differs from the recorded one:\n got  %+v\n want %+v", *bare.Trace, want)
	}
	bare.Trace, full.Trace = nil, nil
	if !reflect.DeepEqual(bare, full) {
		t.Errorf("the outcome depends on TaskEvents:\n without %+v\n with    %+v", bare, full)
	}
}

func TestPolicyComparisonSmall(t *testing.T) {
	cmp, err := PolicyComparison(sharedEnv, ComparisonConfig{
		Jobs:         []string{"B", "E"},
		SeedsPerCase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sums := cmp.Summaries()
	if len(sums) != 4 {
		t.Fatalf("summaries = %d", len(sums))
	}
	var jockey, max PolicySummary
	for _, s := range sums {
		if s.Runs != 4 { // 2 jobs × 2 deadlines × 1 seed
			t.Errorf("%s: runs = %d", s.Policy, s.Runs)
		}
		switch s.Policy {
		case PolicyJockey:
			jockey = s
		case PolicyMax:
			max = s
		}
	}
	// The central claims: max allocation has the highest cluster impact and
	// finishes earliest; Jockey has low impact.
	if max.AboveOracle <= jockey.AboveOracle {
		t.Errorf("max impact %.2f should exceed jockey %.2f", max.AboveOracle, jockey.AboveOracle)
	}
	if max.MedianRel >= jockey.MedianRel {
		t.Errorf("max rel %.2f should be earlier than jockey %.2f", max.MedianRel, jockey.MedianRel)
	}
	out4 := cmp.RenderFig4()
	if !strings.Contains(out4, "jockey") || !strings.Contains(out4, "max-allocation") {
		t.Errorf("fig4 render:\n%s", out4)
	}
	out5 := cmp.RenderFig5()
	if !strings.Contains(out5, "CDF") {
		t.Errorf("fig5 render:\n%s", out5)
	}
}

func TestRecurringVarianceSmall(t *testing.T) {
	t1, err := RecurringVariance(sharedEnv, Table1Config{Jobs: []string{"B", "C"}, RunsPerJob: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.PerJobCoV) != 2 || len(t1.PerJobCoVSimilarInput) != 2 {
		t.Fatalf("rows: %+v", t1)
	}
	for i, cov := range t1.PerJobCoV {
		if cov <= 0 || cov > 2 {
			t.Errorf("job %d CoV = %v out of plausible range", i, cov)
		}
	}
	if !strings.Contains(t1.Render(), "CoV across recurring jobs") {
		t.Error("render missing rows")
	}
}

func TestDependencies(t *testing.T) {
	f, err := Dependencies(sharedEnv, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuantileDurations(f.Stats.Gaps, 0.5) <= 0 {
		t.Error("no gap data")
	}
	if !strings.Contains(f.Render(), "Figure 1") {
		t.Error("render broken")
	}
}

func TestJobStatistics(t *testing.T) {
	t2, err := JobStatistics(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 7 {
		t.Fatalf("rows = %d", len(t2.Rows))
	}
	for _, r := range t2.Rows {
		if r.MeasuredStages != r.PaperStages || r.MeasuredVertices != r.PaperVertices ||
			r.MeasuredBarriers != r.PaperBarriers {
			t.Errorf("job %s: structural stats must match exactly: %+v", r.Job, r)
		}
		// Runtime percentiles match within a factor band (measured on a
		// real run, which adds failures and queueing).
		ratio := float64(r.MeasuredMedian) / float64(r.PaperMedian)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("job %s: measured median %v vs paper %v", r.Job, r.MeasuredMedian, r.PaperMedian)
		}
	}
	if !strings.Contains(t2.Render(), "Table 2") {
		t.Error("render broken")
	}
}

// TestTrainingTraceMatchesClusterRun pins that the training run simulated
// by Env.training is the run the cluster engine would execute: one Tracked
// NoSpare job at Guarantee trainAlloc on an idle cluster of the env's shape,
// at the env's training cluster seed.
func TestTrainingTraceMatchesClusterRun(t *testing.T) {
	for _, spec := range workload.TableTwo {
		got, err := sharedEnv.TrainingTrace(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		ground, err := sharedEnv.Ground(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(cluster.Config{
			Machines:        machines,
			SlotsPerMachine: slots,
			Seed:            stats.DeriveSeed(sharedEnv.Seed, "train-cluster", spec.Name),
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Submit(cluster.JobConfig{Profile: ground.Scale(trainScale),
			Guarantee: trainAlloc, Tracked: true, NoSpare: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if want := h.Result().Trace; !reflect.DeepEqual(got, want) {
			t.Errorf("job %s: the training trace (%d events, completion %v) differs from the cluster run's (%d events, completion %v)",
				spec.Name, len(got.Events), got.Completion, len(want.Events), want.Completion)
		}
	}
}

func TestStageGraphs(t *testing.T) {
	f3, err := StageGraphs(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.DOT) != 7 {
		t.Fatalf("dot count = %d", len(f3.DOT))
	}
	for job, dot := range f3.DOT {
		if !strings.Contains(dot, "digraph") {
			t.Errorf("job %s: bad DOT", job)
		}
	}
	if !strings.Contains(f3.Render(), "depth") {
		t.Error("render broken")
	}
}

func TestTimelapses(t *testing.T) {
	f6, err := Timelapses(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Cases) != 3 {
		t.Fatalf("cases = %d", len(f6.Cases))
	}
	// Scenario (a): on the overloaded run of job F the model must notice
	// the slower progress — the predicted completion T_t climbs towards the
	// deadline — and the controller must keep the allocation high instead
	// of releasing it the way the over-provisioned run does.
	tl := f6.Timeline(0)
	if len(tl) < 5 {
		t.Fatalf("timeline too short: %d", len(tl))
	}
	firstPred, lastPred := tl[0].Predicted, tl[len(tl)-1].Predicted
	if float64(lastPred) < float64(firstPred)*1.1 {
		t.Errorf("model did not notice the overload: T_t %v -> %v", firstPred, lastPred)
	}
	aFirst, aLast := tl[0].Granted, tl[len(tl)-1].Granted
	if aLast < aFirst/2 {
		t.Errorf("overloaded run released too much: %d -> %d", aFirst, aLast)
	}
	if rel := f6.Cases[0].Outcome.RelCompletion; rel < 0.85 {
		t.Errorf("overloaded run finished suspiciously early (rel %.2f); scenario not binding", rel)
	}
	// Scenario (c): over-provisioned job G should release resources.
	tlC := f6.Timeline(2)
	maxC, lastC := 0, tlC[len(tlC)-1].Granted
	for _, p := range tlC {
		if p.Granted > maxC {
			maxC = p.Granted
		}
	}
	if lastC >= maxC {
		t.Errorf("over-provisioned run should release: max %d last %d", maxC, lastC)
	}
	if !strings.Contains(f6.Render(), "Figure 6") {
		t.Error("render broken")
	}
}

func TestTrainingVsActual(t *testing.T) {
	t3, err := TrainingVsActual(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Columns) != 3 {
		t.Fatalf("columns = %d", len(t3.Columns))
	}
	train, job1 := t3.Columns[0], t3.Columns[1]
	// Job 1 carries ~1.9× the work of training.
	ratio := job1.TotalWork.Hours() / train.TotalWork.Hours()
	if ratio < 1.4 || ratio > 2.6 {
		t.Errorf("work ratio = %.2f, want ~1.9", ratio)
	}
	if !strings.Contains(t3.Render(), "Table 3") {
		t.Error("render broken")
	}
}

func TestDeadlineChangesSmall(t *testing.T) {
	f7, err := DeadlineChanges(sharedEnv, []string{"B", "E"})
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Runs) != 6 { // 2 jobs × 3 manipulations
		t.Fatalf("runs = %d", len(f7.Runs))
	}
	sum := f7.Summary()
	halve := sum[HalveDeadline]
	if halve.AllocChange <= 0 {
		t.Errorf("halving should raise allocation: %+v", halve)
	}
	double := sum[DoubleDeadline]
	if double.AllocChange >= 0 {
		t.Errorf("doubling should release allocation: %+v", double)
	}
	for _, r := range f7.Runs {
		if !r.Outcome.Met {
			t.Errorf("job %s %s missed new deadline (%v vs %v)",
				r.Job, r.Kind, r.Outcome.Completion, r.Outcome.Deadline)
		}
	}
	if !strings.Contains(f7.Render(), "Figure 7") {
		t.Error("render broken")
	}
}

func TestPredictionAccuracySmall(t *testing.T) {
	f8, err := PredictionAccuracy(sharedEnv, []string{"B", "E"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Points) != 8 {
		t.Fatalf("points = %d", len(f8.Points))
	}
	if f8.AvgSim <= 0 || f8.AvgSim > 0.6 {
		t.Errorf("simulator avg error = %v out of plausible range", f8.AvgSim)
	}
	if f8.AvgAmdahl <= 0 {
		t.Errorf("amdahl avg error = %v", f8.AvgAmdahl)
	}
	if !strings.Contains(f8.Render(), "Figure 8") {
		t.Error("render broken")
	}
}

func TestIndicatorTraces(t *testing.T) {
	f9, err := IndicatorTraces(sharedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Series) != 2 {
		t.Fatalf("series = %d", len(f9.Series))
	}
	for _, s := range f9.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: no points", s.Indicator)
		}
		// Progress must be monotone non-decreasing.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Progress < s.Points[i-1].Progress-1e-9 {
				t.Errorf("%s: progress decreased at %d", s.Indicator, i)
			}
		}
	}
	if !strings.Contains(f9.Render(), "Figure 9") {
		t.Error("render broken")
	}
}

func TestIndicatorComparisonSmall(t *testing.T) {
	f10, err := IndicatorComparison(sharedEnv, []string{"G"})
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Rows) != 6 {
		t.Fatalf("rows = %d", len(f10.Rows))
	}
	byName := map[core.IndicatorName]IndicatorComparisonRow{}
	for _, r := range f10.Rows {
		byName[r.Indicator] = r
		if r.LongestConstantFrac < 0 || r.LongestConstantFrac > 1 {
			t.Errorf("%s: constant frac %v", r.Indicator, r.LongestConstantFrac)
		}
	}
	// The paper's headline: totalworkWithQ has a shorter constant interval
	// than the structural minstage-inf indicator.
	if byName[core.TotalWorkWithQ].LongestConstantFrac > byName[core.MinStageInf].LongestConstantFrac {
		t.Errorf("totalworkWithQ should be smoother: %v vs %v",
			byName[core.TotalWorkWithQ].LongestConstantFrac,
			byName[core.MinStageInf].LongestConstantFrac)
	}
	if !strings.Contains(f10.Render(), "Figure 10") {
		t.Error("render broken")
	}
}

func TestSensitivitySmall(t *testing.T) {
	f11, err := Sensitivity(sharedEnv, []string{"B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11.Rows) != 7 {
		t.Fatalf("rows = %d", len(f11.Rows))
	}
	for _, r := range f11.Rows {
		if r.Runs != 1 {
			t.Errorf("%s: runs = %d", r.Name, r.Runs)
		}
	}
	if !strings.Contains(f11.Render(), "Figure 11") {
		t.Error("render broken")
	}
}

func TestSweepsSmall(t *testing.T) {
	f12, err := SlackSweep(sharedEnv, []string{"B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.Rows) != 5 {
		t.Fatalf("slack rows = %d", len(f12.Rows))
	}
	if !strings.Contains(f12.Render(), "Figure 12") {
		t.Error("render broken")
	}
	f13, err := HysteresisSweep(sharedEnv, []string{"B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Rows) != 6 {
		t.Fatalf("hysteresis rows = %d", len(f13.Rows))
	}
	if !strings.Contains(f13.Render(), "Figure 13") {
		t.Error("render broken")
	}
}

func TestRenderTable(t *testing.T) {
	out := renderTable("title", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(out, "title") || !strings.Contains(out, "333") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

func TestOnlinePolicy(t *testing.T) {
	short, _, err := sharedEnv.Deadlines("B")
	if err != nil {
		t.Fatal(err)
	}
	o, err := sharedEnv.RunExec(NewExec(), SLORun{
		Job:      "B",
		Deadline: short,
		Policy:   PolicyJockeyOnline,
		Seed:     31,
		// Pin the input scale: this test checks the predictor integration,
		// not its statistical performance on extreme input drift.
		InputScale: 1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Met {
		t.Errorf("online-predictor run missed: %v of %v", o.Completion, o.Deadline)
	}
	if len(o.Trace.Timeline) == 0 {
		t.Error("no control decisions recorded")
	}
}

func TestOnlineVsTableSmall(t *testing.T) {
	e1, err := OnlineVsTable(sharedEnv, []string{"B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1.Rows) != 1 || e1.Rows[0].Runs != 1 {
		t.Fatalf("rows: %+v", e1.Rows)
	}
	r := e1.Rows[0]
	if r.OnlineDecision <= r.TableDecisionUs {
		t.Errorf("online decisions (%.0fµs) should cost more than table lookups (%.0fµs)",
			r.OnlineDecision, r.TableDecisionUs)
	}
	if !strings.Contains(e1.Render(), "Extension E1") {
		t.Error("render broken")
	}
}

func TestAdmissionControlSmall(t *testing.T) {
	e2, err := AdmissionControl(sharedEnv, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.Outcomes) != 2 {
		t.Fatalf("outcomes: %+v", e2.Outcomes)
	}
	gated, open := e2.Outcomes[0], e2.Outcomes[1]
	if gated.Mode != "admission-control" || open.Mode != "admit-everything" {
		t.Fatalf("mode order: %+v", e2.Outcomes)
	}
	if gated.Admitted >= open.Admitted {
		t.Errorf("fit check should reject some jobs: %d vs %d", gated.Admitted, open.Admitted)
	}
	if gated.Met != gated.Admitted {
		t.Errorf("admitted jobs must all meet their SLOs: %d of %d", gated.Met, gated.Admitted)
	}
	// The exact outcome is pinned so that any change to the fit check's
	// admission decisions shows up here, not only in results/ext2.txt.
	if want := []string{"C-2", "E-3", "F-4", "E-5"}; !reflect.DeepEqual(e2.Rejected, want) {
		t.Errorf("rejected %v, want %v", e2.Rejected, want)
	}
	const wantRender = "Extension E2: admission control over a stream of SLO jobs (§1's fit check)\n" +
		"rejected by the arbiter: [C-2 E-3 F-4 E-5]\n" +
		"mode               offered  admitted  deadlines met\n" +
		"-----------------  -------  --------  -------------\n" +
		"admission-control  6        2         2 (100.0%)   \n" +
		"admit-everything   6        6         6 (100.0%)   \n"
	if got := e2.Render(); got != wantRender {
		t.Errorf("render:\n%s\nwant:\n%s", got, wantRender)
	}
}
