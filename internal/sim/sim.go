// Package sim implements Jockey's offline job simulator (§4.1 of the
// paper): an event-based simulation of one job executing at a fixed token
// allocation, parameterized by a job profile (per-stage task runtime and
// initialization-latency distributions and failure probabilities).
//
// The simulator captures the features the paper calls out as important —
// outliers (heavy-tailed task runtimes), barriers (all-to-all edges), task
// failures and re-execution, and limited parallelism — while ignoring
// aspects the paper's simulator also ignores (input-size variation,
// duplicate-task scheduling).
//
// Repeatedly running the simulator across an allocation grid yields the
// samples from which the C(p, a) remaining-time distributions are built
// (package model). Because one table build runs thousands of simulations
// and the online predictor re-runs them every control tick, the hot path
// is allocation-lean: a Runner allocates its arenas once per job shape and
// reuses them across runs, and the event queue never boxes. The queue
// holds only task ends: the SamplePeriod clock runs beside it, ordered
// against task ends by (time, sequence number) as if it were queued.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/eventq"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// SamplePeriod is how often a run hands Config.OnSample a snapshot: every
// 30 s of simulated time, the paper's "discrete time step" for C(p, a).
const SamplePeriod = 30 * time.Second

// Snapshot is the observable job state handed to sampling callbacks.
type Snapshot struct {
	Time     time.Duration
	FracDone []float64 // per stage, fraction of tasks complete (f_s)
}

// Config parameterizes one simulated execution.
type Config struct {
	Profile *profile.Profile
	// Alloc is the fixed token allocation (maximum concurrently running
	// tasks). Must be >= 1.
	Alloc int
	// Seed drives all randomness of this run.
	Seed uint64
	// OnSample, if set, receives a snapshot every SamplePeriod. The clock
	// is not queued, but it breaks ties as if it were: a snapshot due at
	// the same time as a task end comes first exactly when that task was
	// dispatched after the previous snapshot (any task, for the first).
	OnSample func(Snapshot)
	// InitialFracDone, if non-nil, starts the simulation from a partially
	// completed job: per stage, the given fraction of tasks (rounded down)
	// begins as already finished. This supports online re-simulation from a
	// running job's state (§4.4's proposed enhancement). Must be parallel
	// to the plan's stages; an entry may not be NaN or negative, and one of
	// 1 or more, +Inf included, completes its stage.
	InitialFracDone []float64

	// noFailures turns off failure injection, for RunInfinite's
	// infinite-resource critical-path runs behind the minstage-inf
	// indicator.
	noFailures bool
}

func (cfg *Config) validate() error {
	if cfg.Profile == nil {
		return fmt.Errorf("sim: nil profile")
	}
	if cfg.Alloc < 1 {
		return fmt.Errorf("sim: allocation %d; need at least 1 token", cfg.Alloc)
	}
	if cfg.InitialFracDone != nil && len(cfg.InitialFracDone) != cfg.Profile.Job.NumStages() {
		return fmt.Errorf("sim: InitialFracDone has %d entries; plan %q has %d stages",
			len(cfg.InitialFracDone), cfg.Profile.Job.Name, cfg.Profile.Job.NumStages())
	}
	for s, f := range cfg.InitialFracDone {
		if !(f >= 0) {
			return fmt.Errorf("sim: plan %q: InitialFracDone[%d] is %v; a stage's done fraction cannot be NaN or negative",
				cfg.Profile.Job.Name, s, f)
		}
	}
	return nil
}

// event is what the queue orders: the end of one task attempt. The
// sampling clock is not queued (see Runner.nextSample). An event is 12
// bytes, so a queue item with its time and sequence number is 32; shape
// rejects a stage whose task index would not fit in int32.
type event struct {
	stage, task int32
	failed      bool
}

// Runner is a reusable simulation engine. The first run against a job plan
// allocates the engine's state arenas — the plan's dag.Tracker (dependency
// counts, attempts, queued times and the ready FIFO), the per-task
// dispatch and start times, and the event queue — sized to that plan;
// subsequent runs against the same plan (pointer-identical *dag.Job)
// reset them in place, and a run against another plan reslices every
// arena on its capacity, allocating only where the plan outgrows it. Run
// also records every task attempt into a reused trace, which stops
// growing at the plan's high-water attempt count; Completion records
// nothing. This is the hot-path engine behind C(p, a)
// table builds and per-tick online re-simulation, where thousands of runs
// share one job shape and read only the completion time.
//
// A Runner is NOT safe for concurrent use: callers that fan simulations
// out across goroutines hold one Runner per worker, as model.Builder does
// for each worker of its pool and keeps for the builds that follow.
// A reused Runner's results are bit-identical to a fresh one's — same RNG
// draws, same event order, same trace — pinned by
// TestRunnerReuseBitIdentical.
type Runner struct {
	// Shaped per job plan (rebuilt only when the job changes).
	job  *dag.Job
	deps dag.Tracker
	// Per task, indexed by deps.Index: the token-grant and exec-start times
	// of the in-flight attempt.
	dispatchedAt []time.Duration
	startedAt    []time.Duration

	q       eventq.Queue[event]
	tr      trace.JobTrace
	src     *rand.PCG
	rng     *rand.Rand
	fracBuf []float64 // scratch for Snapshot.FracDone

	// Per-run state.
	cfg     Config
	record  bool // append every finished attempt to tr (Run, not Completion)
	p       *profile.Profile
	now     time.Duration
	running int
	// The sampling clock, kept out of the queue: the next snapshot's time
	// and the queue sequence number reserved for it where the clock's event
	// would have been pushed, so it orders against task ends exactly as a
	// queued event would. Used only when cfg.OnSample is set.
	nextSample time.Duration
	sampleSeq  uint64
}

// NewRunner returns an empty Runner; arenas are sized lazily by the first
// Run's job plan.
func NewRunner() *Runner {
	src := stats.NewSource(0) //jockeyvet:ignore seedflow placeholder state only: reset() reseeds from cfg.Seed before every run
	return &Runner{src: src, rng: rand.New(src)}
}

// Run simulates one execution of the profiled job and returns its trace.
//
// Reuse contract: the returned trace AND the Snapshot.FracDone slices
// passed to cfg.OnSample are backed by the Runner's arenas and are valid
// only until the Runner's next Run or Completion call. Callers that need
// to retain them must copy.
func (r *Runner) Run(cfg Config) (*trace.JobTrace, error) {
	if err := r.exec(cfg, true); err != nil {
		return nil, err
	}
	return &r.tr, nil
}

// Completion simulates one execution exactly as Run does — same RNG draws,
// same event order, same samples — and returns only its completion time,
// recording no task trace. It is for callers that read nothing else, such
// as C(p, a) builds and online forward simulation. The Snapshot.FracDone
// reuse contract of Run applies.
func (r *Runner) Completion(cfg Config) (time.Duration, error) {
	if err := r.exec(cfg, false); err != nil {
		return 0, err
	}
	return r.now, nil
}

// exec validates cfg, shapes and resets the arenas, and runs the event
// loop; record selects whether finished attempts go into the trace.
// Recording draws no randomness, so it cannot change the run.
func (r *Runner) exec(cfg Config, record bool) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if r.job != cfg.Profile.Job {
		if err := r.shape(cfg.Profile.Job); err != nil {
			return err
		}
	}
	r.cfg = cfg
	r.p = cfg.Profile
	r.record = record
	r.reset()
	return r.run()
}

// stageTooLargeError rejects a plan whose stage holds more tasks than an
// event's int32 task index can name.
type stageTooLargeError struct {
	job, stage string
	index      int
	tasks      int
}

func (e *stageTooLargeError) Error() string {
	return fmt.Sprintf("sim: job %q stage %q (index %d) has %d tasks; the simulator supports at most %d per stage",
		e.job, e.stage, e.index, e.tasks, math.MaxInt32)
}

// shape (re)builds the arenas for a new job plan: the dependency tracker
// and the per-task time arrays, each resliced in place when its capacity
// holds the plan. A plan it rejects leaves the Runner as it was.
func (r *Runner) shape(job *dag.Job) error {
	for s, st := range job.Stages {
		if int64(st.Tasks) > math.MaxInt32 {
			return &stageTooLargeError{job: job.Name, stage: st.Name, index: s, tasks: st.Tasks}
		}
	}
	if err := dag.Trackable(job); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	r.job = job
	r.deps.Init(job)
	r.dispatchedAt = fit(r.dispatchedAt, r.deps.Left())
	r.startedAt = fit(r.startedAt, r.deps.Left())
	r.fracBuf = fit(r.fracBuf, job.NumStages())
	return nil
}

// fit returns s resliced to length n, or a new slice of length n when s's
// capacity falls short. It clears nothing: reset clears the time arrays,
// and every snapshot overwrites fracBuf.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset reinitializes the per-run state in place: the tracker rewinds,
// pre-completes InitialFracDone and seeds its ready FIFO, and the event
// queue, trace and RNG rewind. Nothing allocates once the arenas exist.
func (r *Runner) reset() {
	r.deps.Reset()
	if r.cfg.InitialFracDone != nil {
		r.deps.PreComplete(r.cfg.InitialFracDone)
	}
	r.deps.Seed(0)
	clear(r.dispatchedAt)
	clear(r.startedAt)
	r.q.Reset()
	r.tr.Reset(r.job.Name, r.job.NumStages())
	stats.ReseedSource(r.src, r.cfg.Seed)
	r.now = 0
	r.running = 0
	if r.cfg.OnSample != nil {
		r.nextSample = SamplePeriod
		r.sampleSeq = r.q.Reserve()
	}
}

// dispatch starts ready tasks while tokens are available.
//
//jockey:hotpath
func (r *Runner) dispatch() {
	for r.running < r.cfg.Alloc {
		t, ok := r.deps.Pop()
		if !ok {
			return
		}
		r.startTask(t.Stage, t.Task)
	}
}

//jockey:hotpath
func (r *Runner) startTask(stage, task int) {
	mayFail := !r.cfg.noFailures && r.deps.Attempt(stage, task) < profile.MaxAttempts-1
	initDelay, exec, fails := r.p.Stages[stage].SampleAttempt(r.rng, 1, mayFail)
	i := r.deps.Index(stage, task)
	r.dispatchedAt[i] = r.now
	r.startedAt[i] = r.now + initDelay
	r.running++
	r.q.Push(r.now+initDelay+exec, event{stage: int32(stage), task: int32(task), failed: fails})
}

//jockey:hotpath
func (r *Runner) run() error {
	r.dispatch()
	for r.deps.Left() > 0 {
		if r.cfg.OnSample != nil && r.sampleDue() {
			r.emitSample()
			continue
		}
		at, ev, ok := r.q.Pop()
		if !ok {
			return fmt.Errorf("sim: job %q stalled at %v with %d tasks left (plan bug?)", //jockeyvet:ignore hotalloc cold path: a stall is a plan bug that ends the run
				r.job.Name, r.now, r.deps.Left())
		}
		r.now = at
		r.finishTask(ev)
	}
	r.tr.Completion = r.now
	return nil
}

// sampleDue reports whether the sampling clock's next tick orders before
// the earliest queued task end by (time, sequence number), as its event
// would have if it were queued. With no task end queued the run has
// stalled, which Pop reports.
//
//jockey:hotpath
func (r *Runner) sampleDue() bool {
	at, seq, ok := r.q.PeekKey()
	return ok && (r.nextSample < at || r.nextSample == at && r.sampleSeq < seq)
}

// emitSample hands OnSample the snapshot due at nextSample and advances the
// clock, reserving the sequence number its next tick would have been
// pushed with.
func (r *Runner) emitSample() {
	r.now = r.nextSample
	r.nextSample += SamplePeriod
	r.sampleSeq = r.q.Reserve()
	r.deps.FracDone(r.fracBuf)
	r.cfg.OnSample(Snapshot{
		Time:     r.now,
		FracDone: r.fracBuf,
	})
}

//jockey:hotpath
func (r *Runner) finishTask(ev event) {
	stage, task := int(ev.stage), int(ev.task)
	r.running--
	if r.record {
		i := r.deps.Index(stage, task)
		r.tr.AddTask(trace.TaskEvent{
			Stage:      stage,
			Task:       task,
			Attempt:    r.deps.Attempt(stage, task),
			Queued:     r.deps.QueuedAt(stage, task),
			Dispatched: r.dispatchedAt[i],
			Started:    r.startedAt[i],
			Ended:      r.now,
			Failed:     ev.failed,
		})
	}
	if ev.failed {
		r.deps.Requeue(r.now, stage, task)
	} else {
		r.deps.Complete(r.now, stage, task)
	}
	r.dispatch()
}
