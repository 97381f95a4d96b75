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
// reuses them across runs, and the event queue never boxes.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/eventq"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// DefaultMaxAttempts bounds re-execution of a repeatedly failing task so a
// pathological failure probability cannot hang the simulation.
const DefaultMaxAttempts = 20

// Snapshot is the observable job state handed to sampling callbacks.
type Snapshot struct {
	Time     time.Duration
	FracDone []float64 // per stage, fraction of tasks complete (f_s)
	Running  int       // tasks currently executing
	Ready    int       // tasks ready but waiting for a token
}

// Config parameterizes one simulated execution.
type Config struct {
	Profile *profile.Profile
	// Alloc is the fixed token allocation (maximum concurrently running
	// tasks). Must be >= 1.
	Alloc int
	// Seed drives all randomness of this run.
	Seed uint64
	// DisableFailures turns off failure injection (used for the
	// infinite-resource critical-path runs behind the minstage-inf
	// indicator).
	DisableFailures bool
	// MaxAttempts bounds per-task attempts; 0 means DefaultMaxAttempts.
	MaxAttempts int
	// SampleEvery, if positive, invokes OnSample at this period during the
	// run (the paper samples per minute).
	SampleEvery time.Duration
	// OnSample receives periodic snapshots. Ignored if SampleEvery <= 0.
	OnSample func(Snapshot)
	// InitialFracDone, if non-nil, starts the simulation from a partially
	// completed job: per stage, the given fraction of tasks (rounded down)
	// begins as already finished. This supports online re-simulation from a
	// running job's state (§4.4's proposed enhancement). Must be parallel
	// to the plan's stages.
	InitialFracDone []float64
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
	return nil
}

type taskRef struct {
	stage, task int
}

type event struct {
	kind   eventKind
	stage  int
	task   int
	failed bool
}

type eventKind int

const (
	evTaskEnd eventKind = iota
	evSample
)

// readyCompactMin is the minimum number of consumed entries before the
// ready FIFO compacts (see popReady); small queues never pay the copy.
const readyCompactMin = 1024

// Runner is a reusable simulation engine. The first Run against a job plan
// allocates the engine's state arenas — per-task completion/dependency/
// attempt/timestamp arrays (flat backing arrays with per-stage views), the
// consumer adjacency, the ready FIFO, the event queue, and the trace
// buffer — sized to that plan; subsequent Runs against the same plan
// (pointer-identical *dag.Job) reset them in place and allocate nothing
// beyond what the run itself records. This is the hot-path engine behind
// C(p, a) table builds and per-tick online re-simulation, where thousands
// of runs share one job shape.
//
// A Runner is NOT safe for concurrent use: callers that fan simulations
// out across goroutines hold one Runner per worker (see model.BuildCPA).
// A reused Runner's results are bit-identical to a fresh one's — same RNG
// draws, same event order, same trace — pinned by
// TestRunnerReuseBitIdentical.
type Runner struct {
	// Immutable per job shape (rebuilt only when the job changes).
	job *dag.Job
	// consumers[s][i] lists, for each one-to-one out-edge of stage s, the
	// consumer tasks that depend on producer task i.
	consumers [][][]taskRef
	// baseDeps is the initial remaining-dependency count of every task,
	// derived from the plan's edges alone; reset copies it into remFlat.
	baseDeps   []int
	totalTasks int

	// Flat arenas, one entry per task, with per-stage window views.
	doneFlat       []bool
	remFlat        []int
	attemptsFlat   []int
	queuedFlat     []time.Duration
	dispatchedFlat []time.Duration
	startedFlat    []time.Duration

	done         [][]bool
	remDeps      [][]int
	attempts     [][]int
	queuedAt     [][]time.Duration
	dispatchedAt [][]time.Duration // token-grant time of the in-flight attempt
	startedAt    [][]time.Duration // exec-start time of the in-flight attempt
	doneCount    []int

	ready     []taskRef // FIFO queue of schedulable tasks
	readyHead int
	q         eventq.Queue[event]
	tr        trace.JobTrace
	src       *rand.PCG
	rng       *rand.Rand
	fracBuf   []float64 // scratch for Snapshot.FracDone

	// Per-run state.
	cfg       Config
	p         *profile.Profile
	now       time.Duration
	running   int
	tasksLeft int
	maxA      int
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
// only until the next Run call. Callers that need to retain them must
// copy.
func (r *Runner) Run(cfg Config) (*trace.JobTrace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r.cfg = cfg
	r.p = cfg.Profile
	r.maxA = cfg.MaxAttempts
	if r.maxA <= 0 {
		r.maxA = DefaultMaxAttempts
	}
	if r.job != cfg.Profile.Job {
		r.shape(cfg.Profile.Job)
	}
	r.reset()
	if err := r.run(); err != nil {
		return nil, err
	}
	return &r.tr, nil
}

// shape (re)builds the arenas for a new job plan: one flat array per
// per-task field, sliced into per-stage windows, plus the consumer
// adjacency and base dependency counts, both of which depend only on the
// plan and are reused unchanged across runs.
func (r *Runner) shape(job *dag.Job) {
	r.job = job
	n := job.NumStages()
	total := 0
	for s := 0; s < n; s++ {
		total += job.Stages[s].Tasks
	}
	r.totalTasks = total

	r.doneFlat = make([]bool, total)
	r.remFlat = make([]int, total)
	r.attemptsFlat = make([]int, total)
	r.queuedFlat = make([]time.Duration, total)
	r.dispatchedFlat = make([]time.Duration, total)
	r.startedFlat = make([]time.Duration, total)
	r.baseDeps = make([]int, total)
	r.doneCount = make([]int, n)
	r.fracBuf = make([]float64, n)

	r.done = make([][]bool, n)
	r.remDeps = make([][]int, n)
	r.attempts = make([][]int, n)
	r.queuedAt = make([][]time.Duration, n)
	r.dispatchedAt = make([][]time.Duration, n)
	r.startedAt = make([][]time.Duration, n)
	r.consumers = make([][][]taskRef, n)
	off := 0
	for s := 0; s < n; s++ {
		tasks := job.Stages[s].Tasks
		r.done[s] = r.doneFlat[off : off+tasks]
		r.remDeps[s] = r.remFlat[off : off+tasks]
		r.attempts[s] = r.attemptsFlat[off : off+tasks]
		r.queuedAt[s] = r.queuedFlat[off : off+tasks]
		r.dispatchedAt[s] = r.dispatchedFlat[off : off+tasks]
		r.startedAt[s] = r.startedFlat[off : off+tasks]
		r.consumers[s] = make([][]taskRef, tasks)
		off += tasks
	}
	// Dependency counts: one unit per one-to-one producer task in range,
	// plus one unit per all-to-all input edge (satisfied when the producer
	// stage completes).
	baseDeps := r.remDeps // fill the views, then snapshot into baseDeps
	for s := 0; s < n; s++ {
		for _, edge := range job.Inputs(s) {
			for task := 0; task < job.Stages[s].Tasks; task++ {
				if edge.Kind == dag.AllToAll {
					baseDeps[s][task]++
					continue
				}
				lo, hi := job.DepRange(edge, task)
				baseDeps[s][task] += hi - lo
				for i := lo; i < hi; i++ {
					r.consumers[edge.From][i] = append(r.consumers[edge.From][i], taskRef{s, task})
				}
			}
		}
	}
	copy(r.baseDeps, r.remFlat)
}

// reset reinitializes the per-run state in place: counters and flags are
// cleared, dependency counts restored from baseDeps, the ready FIFO, event
// queue, trace and RNG rewound. Nothing allocates once the arenas exist.
func (r *Runner) reset() {
	clear(r.doneFlat)
	copy(r.remFlat, r.baseDeps)
	clear(r.attemptsFlat)
	clear(r.queuedFlat)
	clear(r.dispatchedFlat)
	clear(r.startedFlat)
	clear(r.doneCount)
	r.ready = r.ready[:0]
	r.readyHead = 0
	r.q.Reset()
	r.tr.Reset(r.job.Name, r.job.NumStages())
	stats.ReseedSource(r.src, r.cfg.Seed)
	r.now = 0
	r.running = 0
	r.tasksLeft = r.totalTasks

	r.applyInitialState()
	for s := 0; s < r.job.NumStages(); s++ {
		for task := 0; task < r.job.Stages[s].Tasks; task++ {
			if r.remDeps[s][task] == 0 && !r.done[s][task] {
				r.markReady(s, task)
			}
		}
	}
	if r.cfg.SampleEvery > 0 && r.cfg.OnSample != nil {
		r.q.Push(r.cfg.SampleEvery, event{kind: evSample})
	}
}

// applyInitialState pre-completes tasks according to InitialFracDone,
// propagating dependency satisfaction exactly as live completions would.
func (r *Runner) applyInitialState() {
	fracs := r.cfg.InitialFracDone
	if fracs == nil {
		return
	}
	job := r.job
	// First mark per-task completions and satisfy one-to-one consumers.
	// Run validated len(fracs) == NumStages before the engine was built.
	for s := 0; s < job.NumStages(); s++ {
		k := int(fracs[s] * float64(job.Stages[s].Tasks))
		if k > job.Stages[s].Tasks {
			k = job.Stages[s].Tasks
		}
		for task := 0; task < k; task++ {
			r.done[s][task] = true
			r.doneCount[s]++
			r.tasksLeft--
			for _, c := range r.consumers[s][task] {
				r.remDeps[c.stage][c.task]--
			}
		}
	}
	// Then satisfy all-to-all consumers of fully completed stages.
	for s := 0; s < job.NumStages(); s++ {
		if r.doneCount[s] != job.Stages[s].Tasks {
			continue
		}
		for _, edge := range job.Outputs(s) {
			if edge.Kind != dag.AllToAll {
				continue
			}
			for t := 0; t < job.Stages[edge.To].Tasks; t++ {
				r.remDeps[edge.To][t]--
			}
		}
	}
}

//jockey:hotpath
func (r *Runner) markReady(stage, task int) {
	r.queuedAt[stage][task] = r.now
	r.ready = append(r.ready, taskRef{stage, task})
}

// popReady dequeues the oldest ready task. The FIFO is a slice plus a head
// index; consumed entries are compacted away (a copy-down, preserving
// order) only once at least readyCompactMin entries are dead AND they make
// up at least half the slice, so the amortized cost per task stays O(1)
// and the backing array stops growing at the job's high-water ready count.
// Compaction is content-preserving, so it cannot affect simulation
// results, and reset rewinds head and length while keeping capacity.
//
//jockey:hotpath
func (r *Runner) popReady() (taskRef, bool) {
	if r.readyHead >= len(r.ready) {
		return taskRef{}, false
	}
	t := r.ready[r.readyHead]
	r.readyHead++
	if r.readyHead >= readyCompactMin && r.readyHead*2 >= len(r.ready) {
		n := copy(r.ready, r.ready[r.readyHead:])
		r.ready = r.ready[:n]
		r.readyHead = 0
	}
	return t, true
}

//jockey:hotpath
func (r *Runner) readyLen() int { return len(r.ready) - r.readyHead }

// dispatch starts ready tasks while tokens are available.
//
//jockey:hotpath
func (r *Runner) dispatch() {
	for r.running < r.cfg.Alloc {
		t, ok := r.popReady()
		if !ok {
			return
		}
		r.startTask(t.stage, t.task)
	}
}

//jockey:hotpath
func (r *Runner) startTask(stage, task int) {
	sp := &r.p.Stages[stage]
	initDelay := sp.Queue.Sample(r.rng)
	exec := sp.Exec.Sample(r.rng)
	if exec <= 0 {
		exec = time.Millisecond
	}
	fails := false
	if !r.cfg.DisableFailures && r.attempts[stage][task] < r.maxA-1 && sp.FailureProb > 0 {
		fails = r.rng.Float64() < sp.FailureProb
	}
	if fails {
		// A failing attempt dies partway through its service time.
		exec = time.Duration(float64(exec) * r.rng.Float64())
		if exec <= 0 {
			exec = time.Millisecond
		}
	}
	r.dispatchedAt[stage][task] = r.now
	r.startedAt[stage][task] = r.now + initDelay
	r.running++
	r.q.Push(r.now+initDelay+exec, event{kind: evTaskEnd, stage: stage, task: task, failed: fails})
}

//jockey:hotpath
func (r *Runner) run() error {
	r.dispatch()
	for r.tasksLeft > 0 {
		at, ev, ok := r.q.Pop()
		if !ok {
			return fmt.Errorf("sim: job %q stalled at %v with %d tasks left (plan bug?)", //jockeyvet:ignore hotalloc cold path: a stall is a plan bug that ends the run
				r.job.Name, r.now, r.tasksLeft)
		}
		r.now = at
		switch ev.kind {
		case evSample:
			r.emitSample()
			if r.tasksLeft > 0 {
				r.q.Push(r.now+r.cfg.SampleEvery, event{kind: evSample})
			}
		case evTaskEnd:
			r.finishTask(ev)
		}
	}
	r.tr.Completion = r.now
	return nil
}

func (r *Runner) emitSample() {
	for s := range r.fracBuf {
		r.fracBuf[s] = float64(r.doneCount[s]) / float64(r.job.Stages[s].Tasks)
	}
	r.cfg.OnSample(Snapshot{
		Time:     r.now,
		FracDone: r.fracBuf,
		Running:  r.running,
		Ready:    r.readyLen(),
	})
}

//jockey:hotpath
func (r *Runner) finishTask(ev event) {
	stage, task := ev.stage, ev.task
	r.running--
	r.tr.AddTask(trace.TaskEvent{
		Stage:      stage,
		Task:       task,
		Attempt:    r.attempts[stage][task],
		Queued:     r.queuedAt[stage][task],
		Dispatched: r.dispatchedAt[stage][task],
		Started:    r.startedAt[stage][task],
		Ended:      r.now,
		Failed:     ev.failed,
	})
	if ev.failed {
		r.attempts[stage][task]++
		r.markReady(stage, task)
		r.dispatch()
		return
	}
	r.done[stage][task] = true
	r.doneCount[stage]++
	r.tasksLeft--
	// Satisfy one-to-one consumers of this task.
	for _, c := range r.consumers[stage][task] {
		r.remDeps[c.stage][c.task]--
		if r.remDeps[c.stage][c.task] == 0 {
			r.markReady(c.stage, c.task)
		}
	}
	// Satisfy all-to-all consumers if the stage just completed.
	if r.doneCount[stage] == r.job.Stages[stage].Tasks {
		for _, edge := range r.job.Outputs(stage) {
			if edge.Kind != dag.AllToAll {
				continue
			}
			for t := 0; t < r.job.Stages[edge.To].Tasks; t++ {
				r.remDeps[edge.To][t]--
				if r.remDeps[edge.To][t] == 0 {
					r.markReady(edge.To, t)
				}
			}
		}
	}
	r.dispatch()
}
