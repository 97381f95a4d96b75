package profile

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

func chainJob(t testing.TB) *dag.Job {
	t.Helper()
	return dag.NewBuilder("chain").
		Stage("extract", 4).
		Stage("agg", 2).
		Edge("extract", "agg", dag.AllToAll).
		MustBuild()
}

func TestNewFillsAggregates(t *testing.T) {
	job := chainJob(t)
	p, err := New(job, []StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 20 * time.Second}, Queue: stats.Point{V: time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stages[0].TotalWork; got != 40*time.Second {
		t.Errorf("stage 0 TotalWork = %v, want 40s", got)
	}
	if got := p.Stages[1].TotalWork; got != 40*time.Second {
		t.Errorf("stage 1 TotalWork = %v, want 40s", got)
	}
	if got := p.Stages[1].TotalQueue; got != 2*time.Second {
		t.Errorf("stage 1 TotalQueue = %v, want 2s", got)
	}
	if got := p.Stages[0].LongestTask; got != 10*time.Second {
		t.Errorf("stage 0 LongestTask = %v", got)
	}
	if p.Stages[0].Queue == nil {
		t.Error("nil queue must default to a zero point distribution")
	}
	if got := p.TotalWork(); got != 80*time.Second {
		t.Errorf("TotalWork = %v", got)
	}
	if got := p.TotalQueue(); got != 2*time.Second {
		t.Errorf("TotalQueue = %v", got)
	}
}

func TestNewErrors(t *testing.T) {
	job := chainJob(t)
	if _, err := New(nil, nil); err == nil {
		t.Error("nil job must fail")
	}
	if _, err := New(job, make([]StageProfile, 1)); err == nil {
		t.Error("stage count mismatch must fail")
	}
	if _, err := New(job, make([]StageProfile, 2)); err == nil {
		t.Error("missing exec distribution must fail")
	}
	if _, err := New(job, []StageProfile{
		{Exec: stats.Point{V: time.Second}, FailureProb: 1.5},
		{Exec: stats.Point{V: time.Second}},
	}); err == nil || !strings.Contains(err.Error(), "failure probability") {
		t.Errorf("bad failure prob: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(chainJob(t), nil)
}

func TestCriticalPathAndLs(t *testing.T) {
	job := chainJob(t)
	p := MustNew(job, []StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 20 * time.Second}},
	})
	if got := p.CriticalPath(); got != 30*time.Second {
		t.Errorf("CriticalPath = %v, want 30s", got)
	}
	ls := p.LongestPathAfter()
	if ls[0] != 20*time.Second {
		t.Errorf("L_extract = %v, want 20s", ls[0])
	}
	if ls[1] != 0 {
		t.Errorf("L_agg = %v, want 0", ls[1])
	}
}

func TestFromTrace(t *testing.T) {
	job := chainJob(t)
	tr := trace.New("chain", 2)
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	for task := 0; task < 4; task++ {
		tr.AddTask(trace.TaskEvent{Stage: 0, Task: task,
			Queued: 0, Started: sec(1), Ended: sec(1 + 10 + task)})
	}
	tr.AddTask(trace.TaskEvent{Stage: 0, Task: 0, Attempt: 1, Queued: sec(2), Started: sec(3), Ended: sec(5), Failed: true})
	for task := 0; task < 2; task++ {
		tr.AddTask(trace.TaskEvent{Stage: 1, Task: task,
			Queued: sec(14), Started: sec(15), Ended: sec(35)})
	}
	tr.Completion = sec(35)

	p, err := FromTrace(job, tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.TrainingCompletion != sec(35) {
		t.Errorf("TrainingCompletion = %v", p.TrainingCompletion)
	}
	if got := p.Stages[0].FailureProb; got != 0.2 {
		t.Errorf("failure prob = %v, want 0.2 (1 of 5 attempts)", got)
	}
	if got := p.Stages[0].LongestTask; got != sec(13) {
		t.Errorf("l_s = %v, want 13s", got)
	}
	if got := p.Stages[0].TotalWork; got != sec(10+11+12+13) {
		t.Errorf("T_s = %v", got)
	}
	if got := p.Stages[1].TotalQueue; got != sec(2) {
		t.Errorf("Q_s = %v", got)
	}
	if got := p.Stages[0].Exec.Quantile(0); got != sec(10) {
		t.Errorf("exec min = %v", got)
	}
}

func TestFromTraceErrors(t *testing.T) {
	job := chainJob(t)
	if _, err := FromTrace(nil, nil); err == nil {
		t.Error("nil inputs must fail")
	}
	tr := trace.New("chain", 2)
	tr.AddTask(trace.TaskEvent{Stage: 0, Started: time.Second, Ended: 2 * time.Second})
	if _, err := FromTrace(job, tr); err == nil {
		t.Error("stage without successful attempts must fail")
	}
}

func TestScale(t *testing.T) {
	job := chainJob(t)
	p := MustNew(job, []StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}, Queue: stats.Point{V: time.Second}, FailureProb: 0.1},
		{Exec: stats.Point{V: 20 * time.Second}},
	})
	s := p.Scale(2)
	if got := s.Stages[0].Exec.Mean(); got != 20*time.Second {
		t.Errorf("scaled exec mean = %v", got)
	}
	if got := s.Stages[0].TotalWork; got != 80*time.Second {
		t.Errorf("scaled T_s = %v", got)
	}
	if got := s.Stages[0].TotalQueue; got != 4*time.Second {
		t.Errorf("queue must not scale: %v", got)
	}
	if s.Stages[0].FailureProb != 0.1 {
		t.Error("failure prob must not scale")
	}
	// Original untouched.
	if p.Stages[0].TotalWork != 40*time.Second {
		t.Error("Scale mutated the original")
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	p := MustNew(chainJob(t), []StageProfile{
		{Exec: stats.Point{V: time.Second}},
		{Exec: stats.Point{V: time.Second}},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Scale(0)
}

func TestDistSpecRoundTrip(t *testing.T) {
	dists := []stats.Distribution{
		stats.Point{V: 3 * time.Second},
		stats.Uniform{Lo: time.Second, Hi: 4 * time.Second},
		stats.Exponential{MeanValue: 9 * time.Second},
		stats.Lognormal{Mu: 1.5, Sigma: 0.7},
		stats.Shifted{Base: stats.Point{V: time.Second}, Offset: 2 * time.Second},
		stats.Scaled{Base: stats.Exponential{MeanValue: time.Second}, Factor: 2.5},
		stats.NewEmpirical([]time.Duration{time.Second, 3 * time.Second, 9 * time.Second}),
	}
	for _, d := range dists {
		spec, err := SpecOf(d)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		back, err := spec.Distribution()
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			a, b := d.Quantile(q).Seconds(), back.Quantile(q).Seconds()
			if math.Abs(a-b) > 1e-6 {
				t.Errorf("%v: quantile(%v) %v != %v after round trip", d, q, a, b)
			}
		}
	}
}

func TestDistSpecErrors(t *testing.T) {
	if _, err := (&DistSpec{Kind: "nope"}).Distribution(); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, err := (&DistSpec{Kind: "empirical"}).Distribution(); err == nil {
		t.Error("empirical without samples must fail")
	}
	if _, err := (&DistSpec{Kind: "shifted"}).Distribution(); err == nil {
		t.Error("shifted without base must fail")
	}
	if _, err := (&DistSpec{Kind: "scaled"}).Distribution(); err == nil {
		t.Error("scaled without base must fail")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	job := dag.NewBuilder("j").
		StageData("a", 3, 1.5).
		Stage("b", 2).
		Edge("a", "b", dag.AllToAll).
		MustBuild()
	p := MustNew(job, []StageProfile{
		{Exec: stats.Lognormal{Mu: 1, Sigma: 0.4}, Queue: stats.Exponential{MeanValue: 2 * time.Second}, FailureProb: 0.05},
		{Exec: stats.NewEmpirical([]time.Duration{time.Second, 2 * time.Second})},
	})
	p.TrainingCompletion = 90 * time.Second

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Job.Name != "j" || back.Job.NumStages() != 2 {
		t.Fatalf("job not restored: %v", back.Job)
	}
	if back.Job.NumBarrierStages() != 1 {
		t.Error("edges not restored")
	}
	if back.Job.Stages[0].InputGB != 1.5 {
		t.Error("input size not restored")
	}
	if back.TrainingCompletion != 90*time.Second {
		t.Errorf("training completion = %v", back.TrainingCompletion)
	}
	if back.Stages[0].FailureProb != 0.05 {
		t.Error("failure prob not restored")
	}
	if got, want := back.Stages[0].Exec.Quantile(0.5), p.Stages[0].Exec.Quantile(0.5); got != want {
		t.Errorf("exec quantile %v != %v", got, want)
	}
	if got := back.Stages[1].TotalWork; got != p.Stages[1].TotalWork {
		t.Errorf("T_s not restored: %v vs %v", got, p.Stages[1].TotalWork)
	}
}

func TestProfileUnmarshalErrors(t *testing.T) {
	cases := []string{
		`{`, // invalid JSON
		`{"job":"x","stages":[{"name":"a","tasks":1}],"edges":[]}`,                                                                      // missing exec
		`{"job":"x","stages":[{"name":"a","tasks":1,"exec":{"kind":"nope"}}],"edges":[]}`,                                               // bad dist
		`{"job":"x","stages":[{"name":"a","tasks":1,"exec":{"kind":"point","a":1}}],"edges":[{"from":"a","to":"a","kind":"sideways"}]}`, // bad edge kind
		`{"job":"x","stages":[],"edges":[]}`,                                                                                            // no stages
	}
	for i, c := range cases {
		var p Profile
		if err := json.Unmarshal([]byte(c), &p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestSampleAttemptDrawOrder pins the order of SampleAttempt's draws, which
// fixes every simulated run: queue delay, service time, then the failure
// draw and the failed fraction. A run that may not fail draws no more.
// TestSampleAttemptSaturatesDrift: a drifted service time too long for a
// time.Duration is MaxExec, not a wrapped short or negative time.
func TestSampleAttemptSaturatesDrift(t *testing.T) {
	sp := StageProfile{Exec: stats.Point{V: 10 * time.Second}, Queue: stats.Point{}}
	for _, drift := range []float64{1e9, 1e12, 1e300, math.Inf(1)} {
		if _, exec, _ := sp.SampleAttempt(rand.New(rand.NewPCG(1, 1)), drift, false); exec != MaxExec {
			t.Errorf("drift %g: exec %v, want MaxExec", drift, exec)
		}
	}
	if _, exec, _ := sp.SampleAttempt(rand.New(rand.NewPCG(1, 1)), 1e8, false); exec != 1e18 {
		t.Errorf("drift 1e8: exec %v, want 1e18ns", exec)
	}
}

func TestSampleAttemptDrawOrder(t *testing.T) {
	sp := StageProfile{
		Exec:        stats.Exponential{MeanValue: 9 * time.Second},
		Queue:       stats.Uniform{Lo: time.Second, Hi: 4 * time.Second},
		FailureProb: 0.4,
	}
	for seed := uint64(0); seed < 200; seed++ {
		for _, mayFail := range []bool{false, true} {
			got := rand.New(rand.NewPCG(seed, 1))
			want := rand.New(rand.NewPCG(seed, 1))
			queue, exec, fails := sp.SampleAttempt(got, 2, mayFail)
			wantQueue := sp.Queue.Sample(want)
			wantExec := time.Duration(float64(sp.Exec.Sample(want)) * 2)
			if wantExec <= 0 {
				wantExec = time.Millisecond
			}
			wantFails := mayFail && want.Float64() < sp.FailureProb
			if wantFails {
				if wantExec = time.Duration(float64(wantExec) * want.Float64()); wantExec <= 0 {
					wantExec = time.Millisecond
				}
			}
			if queue != wantQueue || exec != wantExec || fails != wantFails {
				t.Fatalf("seed %d mayFail %v: got (%v, %v, %v), want (%v, %v, %v)",
					seed, mayFail, queue, exec, fails, wantQueue, wantExec, wantFails)
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("seed %d mayFail %v: SampleAttempt consumed a different number of draws", seed, mayFail)
			}
		}
	}
}
