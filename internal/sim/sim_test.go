package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
)

// fixedProfile builds a deterministic two-stage job: 8 map tasks of 10s each
// feeding a 2-task barrier of 20s each, with no queueing or failures.
func fixedProfile(t testing.TB) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("fixed").
		Stage("map", 8).
		Stage("reduce", 2).
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 20 * time.Second}},
	})
}

func TestRunDeterministicLatency(t *testing.T) {
	p := fixedProfile(t)
	cases := []struct {
		alloc int
		want  time.Duration
	}{
		{8, 30 * time.Second},  // one map wave + reduce
		{4, 40 * time.Second},  // two map waves + reduce
		{2, 60 * time.Second},  // four map waves + reduce
		{1, 120 * time.Second}, // fully serial: 8*10 + 2*20
		{100, 30 * time.Second},
	}
	for _, c := range cases {
		tr, err := NewRunner().Run(Config{Profile: p, Alloc: c.alloc, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Completion != c.want {
			t.Errorf("alloc %d: completion %v, want %v", c.alloc, tr.Completion, c.want)
		}
		if got := len(tr.Events); got != 10 {
			t.Errorf("alloc %d: %d events, want 10", c.alloc, got)
		}
	}
}

func TestBarrierEnforced(t *testing.T) {
	p := fixedProfile(t)
	tr, err := NewRunner().Run(Config{Profile: p, Alloc: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lastMapEnd, firstReduceStart time.Duration
	for _, e := range tr.Events {
		if e.Stage == 0 && e.Ended > lastMapEnd {
			lastMapEnd = e.Ended
		}
	}
	firstReduceStart = tr.Completion
	for _, e := range tr.Events {
		if e.Stage == 1 && e.Started < firstReduceStart {
			firstReduceStart = e.Started
		}
	}
	if firstReduceStart < lastMapEnd {
		t.Errorf("reduce started at %v before map finished at %v", firstReduceStart, lastMapEnd)
	}
}

func TestOneToOnePipelines(t *testing.T) {
	// With one-to-one edges a consumer task may start before the whole
	// producer stage completes.
	job := dag.NewBuilder("pipe").
		Stage("a", 4).
		Stage("b", 4).
		Edge("a", "b", dag.OneToOne).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}},
		{Exec: stats.Point{V: 10 * time.Second}},
	})
	tr, err := NewRunner().Run(Config{Profile: p, Alloc: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// At allocation 3 the first wave (a0..a2) finishes at 10s, making b0..b2
	// ready; the second wave mixes a3 with b tasks, so some b task must
	// start before the last a task ends. A barrier would forbid that.
	var lastAEnd time.Duration
	firstBStart := tr.Completion
	for _, e := range tr.Events {
		if e.Stage == 0 && e.Ended > lastAEnd {
			lastAEnd = e.Ended
		}
		if e.Stage == 1 && e.Started < firstBStart {
			firstBStart = e.Started
		}
	}
	if firstBStart >= lastAEnd {
		t.Errorf("one-to-one consumer did not pipeline: firstB %v >= lastA %v", firstBStart, lastAEnd)
	}
}

func TestSameSeedSameTrace(t *testing.T) {
	job := dag.NewBuilder("rand").
		Stage("a", 20).
		Stage("b", 5).
		Edge("a", "b", dag.AllToAll).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(5*time.Second, 20*time.Second),
			Queue: stats.Exponential{MeanValue: time.Second}, FailureProb: 0.1},
		{Exec: stats.LognormalFromMedian(10*time.Second, 30*time.Second)},
	})
	a, err := NewRunner().Run(Config{Profile: p, Alloc: 7, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Run(Config{Profile: p, Alloc: 7, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Completion != b.Completion || len(a.Events) != len(b.Events) {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d",
			a.Completion, len(a.Events), b.Completion, len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	c, err := NewRunner().Run(Config{Profile: p, Alloc: 7, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if c.Completion == a.Completion && len(c.Events) == len(a.Events) {
		// Completion collision is possible but extremely unlikely with
		// continuous distributions.
		t.Error("different seed produced identical run")
	}
}

func TestFailuresAreRetriedAndRecorded(t *testing.T) {
	job := dag.NewBuilder("flaky").Stage("only", 50).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}, FailureProb: 0.3},
	})
	tr, err := NewRunner().Run(Config{Profile: p, Alloc: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	succ := 0
	for _, e := range tr.Events {
		if e.Failed {
			failures++
			if e.ExecTime() >= 10*time.Second {
				t.Errorf("failed attempt ran full service time: %v", e.ExecTime())
			}
		} else {
			succ++
		}
	}
	if succ != 50 {
		t.Errorf("successes = %d, want 50", succ)
	}
	if failures == 0 {
		t.Error("expected some failures at p=0.3")
	}
	if got := tr.FailureRate(0); got == 0 {
		t.Error("trace failure rate should be positive")
	}
}

func TestDisableFailures(t *testing.T) {
	job := dag.NewBuilder("flaky").Stage("only", 50).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}, FailureProb: 0.5},
	})
	tr, err := NewRunner().Run(Config{Profile: p, Alloc: 10, Seed: 5, DisableFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 50 {
		t.Errorf("events = %d, want exactly 50 with failures disabled", len(tr.Events))
	}
}

func TestMaxAttemptsBoundsRetries(t *testing.T) {
	job := dag.NewBuilder("doomed").Stage("only", 3).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: time.Second}, FailureProb: 0.999},
	})
	tr, err := NewRunner().Run(Config{Profile: p, Alloc: 3, Seed: 1, MaxAttempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if e.Attempt >= 5 {
			t.Errorf("attempt %d exceeds MaxAttempts", e.Attempt)
		}
	}
	// The job must still complete (last attempt always succeeds).
	if tr.Completion == 0 {
		t.Error("job did not complete")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := NewRunner().Run(Config{}); err == nil || !strings.Contains(err.Error(), "nil profile") {
		t.Errorf("nil profile: %v", err)
	}
	p := fixedProfile(t)
	if _, err := NewRunner().Run(Config{Profile: p, Alloc: 0}); err == nil {
		t.Error("zero alloc must fail")
	}
}

// TestInitialFracDoneLengthMismatch: a fraction vector that is not parallel
// to the plan's stages must be rejected up front — silently truncating (or
// ignoring the tail of) the vector would start the simulation from a state
// the caller never described.
func TestInitialFracDoneLengthMismatch(t *testing.T) {
	p := fixedProfile(t) // two stages
	cases := []struct {
		name  string
		fracs []float64
		ok    bool
	}{
		{name: "nil means fresh start", fracs: nil, ok: true},
		{name: "matching length", fracs: []float64{0.5, 0}, ok: true},
		{name: "too short", fracs: []float64{0.5}, ok: false},
		{name: "empty but non-nil", fracs: []float64{}, ok: false},
		{name: "too long", fracs: []float64{0.5, 0, 1}, ok: false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := NewRunner().Run(Config{Profile: p, Alloc: 4, Seed: 1, InitialFracDone: c.fracs})
			if c.ok {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tr.Completion <= 0 {
					t.Fatalf("completion = %v", tr.Completion)
				}
				return
			}
			if err == nil {
				t.Fatal("length mismatch must fail")
			}
			if !strings.Contains(err.Error(), "InitialFracDone") {
				t.Fatalf("error %q does not name InitialFracDone", err)
			}
		})
	}
}

// TestInitialFracDoneResume: a matching vector actually shortens the run —
// the validated path must still apply the pre-completed state.
func TestInitialFracDoneResume(t *testing.T) {
	p := fixedProfile(t)
	fresh, err := NewRunner().Run(Config{Profile: p, Alloc: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewRunner().Run(Config{Profile: p, Alloc: 4, Seed: 1, InitialFracDone: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Completion >= fresh.Completion {
		t.Errorf("resumed run (%v) not shorter than fresh run (%v)", resumed.Completion, fresh.Completion)
	}
}

func TestSampling(t *testing.T) {
	p := fixedProfile(t)
	var snaps []Snapshot
	_, err := NewRunner().Run(Config{
		Profile: p, Alloc: 2, Seed: 1,
		SampleEvery: 5 * time.Second,
		OnSample: func(s Snapshot) {
			s.FracDone = append([]float64(nil), s.FracDone...) // valid only during the callback
			snaps = append(snaps, s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no samples")
	}
	// Samples are 5s apart and fractions are monotone.
	for i, s := range snaps {
		if want := time.Duration(i+1) * 5 * time.Second; s.Time != want {
			t.Errorf("sample %d at %v, want %v", i, s.Time, want)
		}
		if s.Running < 0 || s.Running > 2 {
			t.Errorf("running = %d out of [0,2]", s.Running)
		}
		if i > 0 {
			for st := range s.FracDone {
				if s.FracDone[st] < snaps[i-1].FracDone[st] {
					t.Errorf("stage %d fraction decreased", st)
				}
			}
		}
	}
	last := snaps[len(snaps)-1]
	if last.FracDone[0] < 1 {
		t.Errorf("map stage should be complete near the end: %v", last.FracDone)
	}
}

func TestRunInfinite(t *testing.T) {
	p := fixedProfile(t)
	tr, err := RunInfinite(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completion != 30*time.Second {
		t.Errorf("infinite-alloc completion %v, want critical path 30s", tr.Completion)
	}
}

func TestEstimateLatency(t *testing.T) {
	p := fixedProfile(t)
	ds, err := EstimateLatency(p, 4, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 5 {
		t.Fatalf("len = %d", len(ds))
	}
	for i, d := range ds {
		if d != 40*time.Second {
			t.Errorf("run %d: %v, want 40s (deterministic job)", i, d)
		}
	}
	if _, err := EstimateLatency(p, 0, 1, 1); err == nil {
		t.Error("alloc 0 must propagate error")
	}
}

// TestMoreTokensNeverSlowerProperty checks the core monotonicity the control
// loop relies on: for a failure-free job, adding tokens never increases
// completion time.
func TestMoreTokensNeverSlowerProperty(t *testing.T) {
	job := dag.NewBuilder("mono").
		Stage("a", 30).
		Stage("b", 10).
		Stage("c", 5).
		Edge("a", "b", dag.OneToOne).
		Edge("b", "c", dag.AllToAll).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(4*time.Second, 12*time.Second)},
		{Exec: stats.LognormalFromMedian(8*time.Second, 20*time.Second)},
		{Exec: stats.LognormalFromMedian(6*time.Second, 9*time.Second)},
	})
	f := func(seed uint64, rawA, rawB uint8) bool {
		a := 1 + int(rawA)%30
		b := 1 + int(rawB)%30
		if a > b {
			a, b = b, a
		}
		if a == b {
			b++
		}
		// Use the same seed: allocations consume random numbers in different
		// orders, so compare medians of a few runs instead of single runs.
		la, err := EstimateLatency(p, a, 5, seed)
		if err != nil {
			return false
		}
		lb, err := EstimateLatency(p, b, 5, seed)
		if err != nil {
			return false
		}
		// Allow 10% tolerance for sampling noise.
		return float64(lb[2]) <= float64(la[2])*1.10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQueueDelayCountedInTrace(t *testing.T) {
	job := dag.NewBuilder("q").Stage("only", 4).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}, Queue: stats.Point{V: 2 * time.Second}},
	})
	tr, err := NewRunner().Run(Config{Profile: p, Alloc: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if e.QueueTime() != 2*time.Second {
			t.Errorf("queue time %v, want 2s init delay", e.QueueTime())
		}
	}
	if tr.Completion != 12*time.Second {
		t.Errorf("completion %v, want 12s", tr.Completion)
	}
}
