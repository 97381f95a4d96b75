package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
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
	tr, err := NewRunner().Run(Config{Profile: p, Alloc: 10, Seed: 5, noFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 50 {
		t.Errorf("events = %d, want exactly 50 with failures disabled", len(tr.Events))
	}
}

// doomedProfile fails nearly every attempt, so its tasks run into
// profile.MaxAttempts.
func doomedProfile() *profile.Profile {
	job := dag.NewBuilder("doomed").Stage("only", 3).MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: time.Second}, FailureProb: 0.999},
	})
}

func TestMaxAttemptsBoundsRetries(t *testing.T) {
	tr, err := NewRunner().Run(Config{Profile: doomedProfile(), Alloc: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for _, e := range tr.Events {
		if e.Attempt >= profile.MaxAttempts {
			t.Errorf("attempt %d exceeds profile.MaxAttempts", e.Attempt)
		}
		last = max(last, e.Attempt)
	}
	if last != profile.MaxAttempts-1 {
		t.Errorf("last attempt %d, want the cap's %d", last, profile.MaxAttempts-1)
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

// TestInitialFracDoneValues: an entry that is NaN or negative describes no
// state, so it is rejected with an error naming the plan and the stage; an
// entry of 1 or more, +Inf included, completes its stage, running exactly
// as an entry of 1 does.
func TestInitialFracDoneValues(t *testing.T) {
	p := fixedProfile(t) // two stages
	whole, err := NewRunner().Run(Config{Profile: p, Alloc: 4, Seed: 1, InitialFracDone: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		fracs []float64
		bad   int // index of the rejected entry, or -1
	}{
		{name: "NaN", fracs: []float64{math.NaN(), 0}, bad: 0},
		{name: "negative", fracs: []float64{0, -0.5}, bad: 1},
		{name: "-Inf", fracs: []float64{math.Inf(-1), 0}, bad: 0},
		{name: "+Inf completes the stage", fracs: []float64{math.Inf(1), 0}, bad: -1},
		{name: "above 1 completes the stage", fracs: []float64{1.5, 0}, bad: -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, err := NewRunner().Run(Config{Profile: p, Alloc: 4, Seed: 1, InitialFracDone: c.fracs})
			if c.bad < 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tr.Completion != whole.Completion {
					t.Fatalf("completion %v, want %v as with the stage complete", tr.Completion, whole.Completion)
				}
				return
			}
			if err == nil {
				t.Fatalf("InitialFracDone %v must fail", c.fracs)
			}
			if want := fmt.Sprintf("InitialFracDone[%d]", c.bad); !strings.Contains(err.Error(), want) ||
				!strings.Contains(err.Error(), p.Job.Name) {
				t.Fatalf("error %q does not name plan %q and %s", err, p.Job.Name, want)
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
	// Samples are SamplePeriod apart and fractions are monotone.
	for i, s := range snaps {
		if want := time.Duration(i+1) * SamplePeriod; s.Time != want {
			t.Errorf("sample %d at %v, want %v", i, s.Time, want)
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

// TestSampleTiesTaskEnds pins how the sampling clock breaks a tie with a
// task end: every task runs a whole number of SamplePeriods with no queue
// delay or failures, so each task end lands on a sample tick. A tick is
// ordered as if it had been queued when the previous tick fired (the first
// one before any task starts). It comes before a task end due at the same
// time if that task started later, and sees the task still running; it
// comes after one that started earlier, and sees the task done.
func TestSampleTiesTaskEnds(t *testing.T) {
	cases := []struct {
		exec  time.Duration
		alloc int
		done  time.Duration // completion time
		want  []Snapshot
	}{
		{SamplePeriod, 1, 3 * SamplePeriod, []Snapshot{
			{Time: 1 * SamplePeriod, FracDone: []float64{0}},
			{Time: 2 * SamplePeriod, FracDone: []float64{1.0 / 3}},
			{Time: 3 * SamplePeriod, FracDone: []float64{2.0 / 3}},
		}},
		{SamplePeriod, 2, 2 * SamplePeriod, []Snapshot{
			{Time: 1 * SamplePeriod, FracDone: []float64{0}},
			{Time: 2 * SamplePeriod, FracDone: []float64{2.0 / 3}},
		}},
		// The task ending at 2·SamplePeriod started before the tick at
		// SamplePeriod fired, so it ends before the tick at 2·SamplePeriod.
		{2 * SamplePeriod, 2, 4 * SamplePeriod, []Snapshot{
			{Time: 1 * SamplePeriod, FracDone: []float64{0}},
			{Time: 2 * SamplePeriod, FracDone: []float64{2.0 / 3}},
			{Time: 3 * SamplePeriod, FracDone: []float64{2.0 / 3}},
		}},
	}
	for _, c := range cases {
		job := dag.NewBuilder("ticks").Stage("only", 3).MustBuild()
		p := profile.MustNew(job, []profile.StageProfile{{Exec: stats.Point{V: c.exec}}})
		var got []Snapshot
		tr, err := NewRunner().Run(Config{Profile: p, Alloc: c.alloc, Seed: 1, OnSample: func(s Snapshot) {
			s.FracDone = append([]float64(nil), s.FracDone...)
			got = append(got, s)
		}})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Completion != c.done {
			t.Errorf("exec %v alloc %d: completion %v, want %v", c.exec, c.alloc, tr.Completion, c.done)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("exec %v alloc %d: snapshots\n%+v\nwant\n%+v", c.exec, c.alloc, got, c.want)
		}
	}
}

// TestFracDoneAtMatchesSnapshots: a run's trace holds the job state an
// OnSample observer saw. At every sample time, the stage fractions read back
// with progress.FracDoneAt must equal the snapshot's FracDone, which is what
// lets a replay read its per-minute states from the tracked job's trace
// instead of hooking the run. Service times are continuous, so no attempt
// ends exactly at a sample time.
func TestFracDoneAtMatchesSnapshots(t *testing.T) {
	p := noisyRunnerProfile(t)
	r := NewRunner()
	for _, alloc := range []int{1, 5, 20, 80} {
		for seed := uint64(1); seed <= 3; seed++ {
			var snaps []Snapshot
			tr, err := r.Run(Config{Profile: p, Alloc: alloc, Seed: seed, OnSample: func(s Snapshot) {
				s.FracDone = append([]float64(nil), s.FracDone...)
				snaps = append(snaps, s)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatalf("alloc %d seed %d: no samples", alloc, seed)
			}
			for _, s := range snaps {
				if got := progress.FracDoneAt(tr, p, s.Time); !reflect.DeepEqual(got, s.FracDone) {
					t.Errorf("alloc %d seed %d at %v: trace reads back %v, snapshot holds %v",
						alloc, seed, s.Time, got, s.FracDone)
				}
			}
		}
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

// EstimateLatency runs the simulator n times at the given allocation and
// returns the observed completion times, sorted ascending. Seeds are derived
// from seed so results are reproducible. The n runs share one Runner, so
// only the first pays the engine allocation.
func EstimateLatency(p *profile.Profile, alloc, n int, seed uint64) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	r := NewRunner()
	for i := 0; i < n; i++ {
		c, err := r.Completion(Config{Profile: p, Alloc: alloc, Seed: seed + uint64(i)*0x9e37})
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	sortDur(out)
	return out, nil
}

func sortDur(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
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
