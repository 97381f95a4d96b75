package sim

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// noisyRunnerProfile exercises every randomized path: heavy-tailed exec,
// queue delays, failures, a one-to-one pipeline and an all-to-all barrier.
func noisyRunnerProfile(t testing.TB) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("noisy").
		Stage("extract", 40).
		Stage("shuffle", 40).
		Stage("reduce", 6).
		Edge("extract", "shuffle", dag.OneToOne).
		Edge("shuffle", "reduce", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(5*time.Second, 25*time.Second),
			Queue: stats.Exponential{MeanValue: 2 * time.Second}, FailureProb: 0.15},
		{Exec: stats.LognormalFromMedian(8*time.Second, 20*time.Second), FailureProb: 0.05},
		{Exec: stats.LognormalFromMedian(30*time.Second, 80*time.Second)},
	})
}

func cloneTrace(tr *trace.JobTrace) *trace.JobTrace {
	cp := *tr
	cp.Events = append([]trace.TaskEvent(nil), tr.Events...)
	cp.Timeline = append([]trace.AllocPoint(nil), tr.Timeline...)
	return &cp
}

// TestRunnerReuseBitIdentical is the golden determinism test for the arena
// reuse: a Runner re-run across many (seed, alloc, initial-state, sampling)
// configurations must reproduce a fresh Runner's trace byte for byte —
// same events in the same order, same completion — even though it reuses
// every arena from the previous, differently-shaped run.
func TestRunnerReuseBitIdentical(t *testing.T) {
	p := noisyRunnerProfile(t)
	small := fixedProfile(t) // different job shape, forces re-shaping mid-sequence
	cfgs := []Config{
		{Profile: p, Alloc: 1, Seed: 1},
		{Profile: p, Alloc: 7, Seed: 99},
		{Profile: small, Alloc: 4, Seed: 5},
		{Profile: p, Alloc: 30, Seed: 3, InitialFracDone: []float64{0.5, 0.25, 0}},
		{Profile: p, Alloc: 80, Seed: 77, noFailures: true},
		{Profile: p, Alloc: 7, Seed: 99}, // repeat of cfg 1
	}
	sampled := func(i int) bool { return i == 1 || i == 5 }
	// Reference: fresh engine per run.
	var want []*trace.JobTrace
	var wantSnaps [][]Snapshot
	for i, cfg := range cfgs {
		var snaps []Snapshot
		if sampled(i) {
			cfg.OnSample = func(s Snapshot) {
				s.FracDone = append([]float64(nil), s.FracDone...)
				snaps = append(snaps, s)
			}
		}
		tr, err := NewRunner().Run(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		want = append(want, tr)
		wantSnaps = append(wantSnaps, snaps)
	}
	// One Runner across all runs, arenas reused (and re-shaped at cfg 2).
	r := NewRunner()
	for i, cfg := range cfgs {
		var snaps []Snapshot
		if sampled(i) {
			cfg.OnSample = func(s Snapshot) {
				s.FracDone = append([]float64(nil), s.FracDone...) // Runner's buffer is callback-scoped
				snaps = append(snaps, s)
			}
		}
		tr, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("cfg %d reused: %v", i, err)
		}
		got := cloneTrace(tr)
		if got.Completion != want[i].Completion {
			t.Errorf("cfg %d: completion %v, want %v", i, got.Completion, want[i].Completion)
		}
		if !reflect.DeepEqual(got.Events, want[i].Events) {
			t.Errorf("cfg %d: reused-runner events differ from fresh-engine events", i)
		}
		if got.JobName != want[i].JobName || got.NumStages != want[i].NumStages {
			t.Errorf("cfg %d: trace header %q/%d, want %q/%d",
				i, got.JobName, got.NumStages, want[i].JobName, want[i].NumStages)
		}
		if !reflect.DeepEqual(snaps, wantSnaps[i]) {
			t.Errorf("cfg %d: reused-runner snapshots differ from fresh-engine snapshots", i)
		}
	}
}

// steadyStateAllocs checks that a warm call of run on cfg stays within the
// allocation budget, unsampled and with an OnSample callback, which is the
// C(p, a) build's path.
func steadyStateAllocs(t *testing.T, cfg Config, run func(Config) error) {
	t.Helper()
	samples := 0
	for _, c := range []struct {
		name     string
		onSample func(Snapshot)
	}{{"unsampled", nil}, {"sampled", func(Snapshot) { samples++ }}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfg
			cfg.OnSample = c.onSample
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			// A fresh engine pays thousands of allocations per run (6838 on
			// the job E benchmark before arena reuse); the reused engine must
			// be orders of magnitude below that. 16 leaves headroom for rand
			// internals while still failing loudly if any arena stops being
			// reused.
			if allocs > 16 {
				t.Errorf("steady-state run = %v allocs/run, want <= 16", allocs)
			}
		})
	}
	if samples == 0 {
		t.Error("the sampled runs took no snapshot")
	}
}

// TestRunnerSteadyStateAllocs: once the arenas and the trace buffer have
// reached their high-water sizes, re-running the same configuration should
// allocate almost nothing, with or without sampling. The engine itself is
// allocation-free; the only remaining allocations are inside math/rand/v2's
// lognormal path, so the budget is a small constant rather than the
// thousands a fresh engine pays.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	r := NewRunner()
	steadyStateAllocs(t, Config{Profile: noisyRunnerProfile(t), Alloc: 20, Seed: 42}, func(cfg Config) error {
		_, err := r.Run(cfg)
		return err
	})
}

// TestRunnerReshapeAllocatesNothing: a warm Runner alternating between two
// plans of different sizes and stage counts reslices its tracker, its
// per-task time arrays and its snapshot buffer on their capacity, so a run
// that changes the plan allocates nothing.
func TestRunnerReshapeAllocatesNothing(t *testing.T) {
	r := NewRunner()
	snaps := 0
	onSample := func(s Snapshot) { snaps += len(s.FracDone) }
	big := Config{Profile: noisyRunnerProfile(t), Alloc: 20, Seed: 42, OnSample: onSample}
	small := Config{Profile: fixedProfile(t), Alloc: 3, Seed: 7, OnSample: onSample}
	run := func() {
		for _, cfg := range []Config{small, big} {
			if _, err := r.Completion(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Errorf("warm Runner alternating two plans = %v allocs/run, want 0", got)
	}
	if snaps == 0 {
		t.Error("the runs took no snapshot")
	}
}

// TestCompletionMatchesRun is the differential for the trace-free mode:
// on generated configurations — failures, queue delays, partial initial
// state, sampling — Completion must return Run's completion time and hand
// OnSample the same snapshots, from fresh and from reused Runners alike.
func TestCompletionMatchesRun(t *testing.T) {
	profiles := []*profile.Profile{noisyRunnerProfile(t), fixedProfile(t), doomedProfile()}
	rng := stats.NewRNG(20121)
	reusedRun, reusedCompletion := NewRunner(), NewRunner()
	for i := 0; i < 60; i++ {
		p := profiles[rng.IntN(len(profiles))]
		cfg := Config{
			Profile:    p,
			Alloc:      1 + rng.IntN(50),
			Seed:       rng.Uint64(),
			noFailures: rng.IntN(5) == 0,
		}
		if rng.IntN(2) == 0 {
			cfg.InitialFracDone = make([]float64, p.Job.NumStages())
			for s := range cfg.InitialFracDone {
				cfg.InitialFracDone[s] = rng.Float64() * 1.1
			}
		}
		sample := rng.IntN(2) == 0
		record := func(snaps *[]Snapshot) Config {
			c := cfg
			if sample {
				c.OnSample = func(s Snapshot) {
					s.FracDone = append([]float64(nil), s.FracDone...)
					*snaps = append(*snaps, s)
				}
			}
			return c
		}
		for _, pair := range []struct {
			name   string
			run, c *Runner
		}{{"fresh", NewRunner(), NewRunner()}, {"reused", reusedRun, reusedCompletion}} {
			var runSnaps, compSnaps []Snapshot
			tr, err := pair.run.Run(record(&runSnaps))
			if err != nil {
				t.Fatalf("cfg %d %s Run: %v", i, pair.name, err)
			}
			got, err := pair.c.Completion(record(&compSnaps))
			if err != nil {
				t.Fatalf("cfg %d %s Completion: %v", i, pair.name, err)
			}
			if got != tr.Completion {
				t.Fatalf("cfg %d %s: Completion = %v, Run completion = %v", i, pair.name, got, tr.Completion)
			}
			if !reflect.DeepEqual(compSnaps, runSnaps) {
				t.Fatalf("cfg %d %s: Completion snapshots differ from Run's", i, pair.name)
			}
		}
	}
}

// TestCompletionSteadyStateAllocs: a warm Runner's Completion stays within
// the same budget as a warm Run (TestRunnerSteadyStateAllocs); it records
// no trace, so it has less to grow, not more.
func TestCompletionSteadyStateAllocs(t *testing.T) {
	r := NewRunner()
	cfg := Config{Profile: noisyRunnerProfile(t), Alloc: 20, Seed: 42, InitialFracDone: []float64{0.3, 0.1, 0}}
	steadyStateAllocs(t, cfg, func(cfg Config) error {
		_, err := r.Completion(cfg)
		return err
	})
}

// TestStageTooLargeRejected: events carry int32 task indices, so a stage
// wider than that is refused with an error naming the job and the stage,
// before any arena is sized to it, and the Runner keeps working.
func TestStageTooLargeRejected(t *testing.T) {
	job := dag.NewBuilder("huge").Stage("tiny", 2).Stage("wide", math.MaxInt32+1).
		Edge("tiny", "wide", dag.AllToAll).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: time.Second}},
		{Exec: stats.Point{V: time.Second}},
	})
	r := NewRunner()
	_, err := r.Completion(Config{Profile: p, Alloc: 4})
	var tooLarge *stageTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("Completion error = %v, want a stageTooLargeError", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"huge"`) || !strings.Contains(msg, `"wide"`) {
		t.Errorf("error %q does not name the job and the stage", msg)
	}
	if _, err := r.Run(Config{Profile: fixedProfile(t), Alloc: 2, Seed: 1}); err != nil {
		t.Errorf("valid run after a rejected plan: %v", err)
	}
}

// TestPlanTooLargeRejected: the dependency tracker's counters are int32, so
// a plan with more tasks than that, each stage within int32, is refused
// with dag's typed error naming the job, and the Runner keeps working.
func TestPlanTooLargeRejected(t *testing.T) {
	job := dag.NewBuilder("huge").Stage("a", math.MaxInt32).Stage("b", 2).
		Edge("a", "b", dag.AllToAll).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: time.Second}},
		{Exec: stats.Point{V: time.Second}},
	})
	r := NewRunner()
	_, err := r.Completion(Config{Profile: p, Alloc: 4})
	var tooLarge *dag.PlanTooLargeError
	if !errors.As(err, &tooLarge) || !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("Completion error = %v, want a dag.PlanTooLargeError naming the job", err)
	}
	if _, err := r.Run(Config{Profile: fixedProfile(t), Alloc: 2, Seed: 1}); err != nil {
		t.Errorf("valid run after a rejected plan: %v", err)
	}
}

// TestRunnerValidation: the reusable path applies the same Config
// validation as the one-shot wrapper.
func TestRunnerValidation(t *testing.T) {
	r := NewRunner()
	if _, err := r.Run(Config{}); err == nil {
		t.Error("nil profile must fail")
	}
	p := fixedProfile(t)
	if _, err := r.Run(Config{Profile: p, Alloc: 0}); err == nil {
		t.Error("zero alloc must fail")
	}
	if _, err := r.Run(Config{Profile: p, Alloc: 2, InitialFracDone: []float64{1}}); err == nil {
		t.Error("short InitialFracDone must fail")
	}
	// After rejected configs, a valid run still works.
	if _, err := r.Run(Config{Profile: p, Alloc: 2, Seed: 1}); err != nil {
		t.Errorf("valid run after rejects: %v", err)
	}
}

// BenchmarkSimRun measures one simulation of job-E scale (plan from the
// workload generator is too heavy for a micro-bench; this DAG matches its
// structure) with a reused Runner vs a fresh Runner per run.
// TestRunnerSteadyStateAllocs pins the reused variant's allocation count.
func BenchmarkSimRun(b *testing.B) {
	p := noisyRunnerProfile(b)
	b.Run("fresh-engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewRunner().Run(Config{Profile: p, Alloc: 20, Seed: 7}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused-runner", func(b *testing.B) {
		r := NewRunner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(Config{Profile: p, Alloc: 20, Seed: 7}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A reused Runner taking a snapshot every SamplePeriod, as a C(p, a)
	// build does.
	b.Run("sampled", func(b *testing.B) {
		r := NewRunner()
		var sink float64
		cfg := Config{Profile: p, Alloc: 20, Seed: 7, OnSample: func(s Snapshot) { sink += s.FracDone[0] }}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Completion(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunner compares a warm Runner's traced Run with its trace-free
// Completion on the same run; the difference is the cost of recording.
func BenchmarkRunner(b *testing.B) {
	p := noisyRunnerProfile(b)
	cfg := Config{Profile: p, Alloc: 20, Seed: 7}
	b.Run("Run", func(b *testing.B) {
		r := NewRunner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Completion", func(b *testing.B) {
		r := NewRunner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Completion(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
