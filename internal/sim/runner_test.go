package sim

import (
	"reflect"
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
		{Profile: p, Alloc: 7, Seed: 99, SampleEvery: 15 * time.Second},
		{Profile: small, Alloc: 4, Seed: 5},
		{Profile: p, Alloc: 30, Seed: 3, InitialFracDone: []float64{0.5, 0.25, 0}},
		{Profile: p, Alloc: 80, Seed: 77, DisableFailures: true},
		{Profile: p, Alloc: 7, Seed: 99, SampleEvery: 15 * time.Second}, // repeat of cfg 1
	}
	// Reference: fresh engine per run.
	var want []*trace.JobTrace
	var wantSnaps [][]Snapshot
	for i, cfg := range cfgs {
		var snaps []Snapshot
		if cfg.SampleEvery > 0 {
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
		if cfg.SampleEvery > 0 {
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

// TestRunnerSteadyStateAllocs: once the arenas and the trace buffer have
// reached their high-water sizes, re-running the same configuration should
// allocate almost nothing. The engine itself is allocation-free; the only
// remaining allocations are inside math/rand/v2's lognormal path, so the
// budget is a small constant rather than the thousands a fresh engine pays.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	p := noisyRunnerProfile(t)
	r := NewRunner()
	cfg := Config{Profile: p, Alloc: 20, Seed: 42}
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// A fresh engine pays thousands of allocations per run (6838 on the job
	// E benchmark before this change); the reused engine must be orders of
	// magnitude below that. 16 leaves headroom for rand internals while
	// still failing loudly if any arena stops being reused.
	if allocs > 16 {
		t.Errorf("steady-state Run = %v allocs/run, want <= 16", allocs)
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

// TestReadyFIFOCompaction pins the ready-queue policy: entries are served
// strictly FIFO, compaction (copy-down at >= readyCompactMin dead entries
// occupying >= half the slice) preserves both order and content, and reset
// rewinds the queue while keeping its capacity.
func TestReadyFIFOCompaction(t *testing.T) {
	r := NewRunner()
	// Exercise popReady/markReady directly: push 3000, pop interleaved.
	r.job = dag.NewBuilder("fifo").Stage("s", 1).MustBuild()
	r.queuedAt = [][]time.Duration{make([]time.Duration, 3000)}
	next := 0
	popped := 0
	for next < 3000 {
		r.markReady(0, next%1) // stage 0, task 0; identity tracked via order
		next++
		if next%2 == 0 {
			if _, ok := r.popReady(); !ok {
				t.Fatal("pop failed with entries pending")
			}
			popped++
		}
	}
	for {
		if _, ok := r.popReady(); !ok {
			break
		}
		popped++
	}
	if popped != 3000 {
		t.Fatalf("popped %d entries, want 3000", popped)
	}
	// Compaction must have bounded the slice: without it the backing array
	// holds all 3000 entries; with the copy-down policy the head index can
	// never exceed len once readyCompactMin dead entries dominate.
	if len(r.ready) > 2*readyCompactMin {
		t.Errorf("ready slice holds %d entries after drain; compaction did not run", len(r.ready))
	}
	// FIFO order with distinct refs across a compaction boundary.
	r.ready = r.ready[:0]
	r.readyHead = 0
	r.queuedAt = [][]time.Duration{make([]time.Duration, 4096)}
	for i := 0; i < 4096; i++ {
		r.markReady(0, i)
	}
	for i := 0; i < 4096; i++ {
		ref, ok := r.popReady()
		if !ok || ref.task != i {
			t.Fatalf("FIFO order broken at %d: got task %d ok=%v", i, ref.task, ok)
		}
	}
}

// BenchmarkSimRun measures one simulation of job-E scale (plan from the
// workload generator is too heavy for a micro-bench; this DAG matches its
// structure) with a reused Runner vs a fresh Runner per run. The reused variant
// must show >= 30% fewer allocs/op (it is in practice ~1000x).
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
}
