package cluster

import (
	"github.com/jockeysim/jockey/internal/dag"
)

// Engine is a reusable cluster simulator: the same shape-allocate-once /
// reset-in-place idea as sim.Runner (DESIGN.md, "Hot-path performance"),
// applied to the full shared-cluster replay. One experiment grid point
// simulates a six-hour horizon with hundreds of background jobs; a fresh
// Cluster re-allocates every jobRun, running-task record, and scheduling
// buffer each time. An Engine keeps them:
//
//   - jobRuns sit on one free list, whatever their plan. Submit does O(1)
//     work per job and, on a warm engine, allocates nothing. A job that
//     never arrives costs only its jobRun: a paper replay submits
//     background jobs over six hours and ends when its SLO job completes,
//     so most of them never arrive;
//   - task sets (the dag.Tracker, the slot table, the drift factors: every
//     array sized by the plan) sit on one free list too, whatever their
//     plan. A job takes a free set when it arrives and returns it, rewound,
//     when it completes: the free set with the least spare capacity that
//     holds its plan, reshaped in place unless it is of the plan, else a
//     new one. A set never grows. A workload whose plans are themselves
//     reused across runs (workload.BackgroundPool, the experiment jobs
//     A..G, the surge tenant, a fleet's job templates) mostly finds a set
//     of its own plan; one with many plan shapes, such as a background
//     fleet's, reshapes other plans' idle sets instead of allocating its
//     own. Either way it stops allocating sets once the free list covers a
//     run's peak concurrency;
//   - task-attempt state lives in the cluster's taskStore (store.go), whose
//     flat arrays and free list keep their capacity across Reset;
//   - the event queue, machine arrays, and spare-top heap keep their capacity
//     across Reset.
//
// New is a fresh engine's first Reset, and a reset engine is bit-identical
// in behavior to it with the same Config: RNG reseeding reproduces fresh
// streams, and pooled state is fully reinitialized (pinned by
// TestEngineReuseBitIdentical).
//
// An Engine is not safe for concurrent use; the intended pattern is one
// Engine per grid worker (internal/grid gives tasks their worker index for
// exactly this).
type Engine struct {
	c    Cluster
	runs []*jobRun
	sets []*taskSet // free task sets, rewound, of any plan
}

// NewEngine returns an empty reusable engine.
func NewEngine() *Engine { return new(Engine) }

// Reset recycles the previous run's jobs and re-initializes the engine's
// cluster for cfg, returning it ready for Submit/Run. The returned cluster
// (and every Handle and Result.Trace obtained from it) is valid until the
// next Reset; Traces of tracked jobs are freshly allocated and safe to
// retain across resets.
func (e *Engine) Reset(cfg Config) (*Cluster, error) {
	for _, jr := range e.c.jobs {
		e.recycle(jr)
	}
	e.c.jobs = e.c.jobs[:0]
	if err := e.c.init(cfg); err != nil {
		return nil, err
	}
	e.c.eng = e
	return &e.c, nil
}

// recycle returns a jobRun to the free list, and the task set of a job
// still live when Run returned to the free sets. Such a job's attempts
// (background jobs may be mid-flight when the last tracked job completes)
// need no other release: the whole taskStore resets with the cluster.
func (e *Engine) recycle(jr *jobRun) {
	if jr.taskSet != nil {
		e.putSet(jr.taskSet)
		jr.taskSet = nil
	}
	// Drop per-run references that would otherwise pin plans, profiles,
	// policies, and callbacks in memory between runs.
	jr.cfg = JobConfig{}
	jr.p = nil
	jr.job = nil
	jr.result = Result{}
	e.runs = append(e.runs, jr)
}

// takeRun pops a pooled jobRun, or returns a new one when none is free.
func (e *Engine) takeRun() *jobRun {
	n := len(e.runs)
	if n == 0 {
		return new(jobRun)
	}
	jr := e.runs[n-1]
	e.runs = e.runs[:n-1]
	return jr
}

// takeSet returns a rewound task set for job: the free set with the least
// spare capacity that holds the plan, reshaped unless it is of the plan,
// which wins ties; or a new set when no free set holds the plan. Taking the
// tightest set even over a roomier one of the plan keeps the roomy sets
// for the large plans that need them, so an engine replaying a workload
// over and over stops adding sets. The scan runs in slice order, ties
// otherwise going to the earlier set, so which set a job gets, and so what
// the engine allocates, is deterministic. Nothing a replay computes depends
// on which set a job gets: a reshaped set's state equals a new one's.
func (e *Engine) takeSet(job *dag.Job) *taskSet {
	tasks, stages := job.TotalTasks(), job.NumStages()
	pick, pickCost := -1, 0
	for i, ts := range e.sets {
		if !ts.holds(tasks, stages) {
			continue
		}
		// Spare capacity first, a reshape second: 0 is a set of the plan
		// with no spare room, which nothing beats.
		cost := 2 * (cap(ts.slot) - tasks)
		if ts.deps.Job() != job {
			cost++
		}
		if pick < 0 || cost < pickCost {
			pick, pickCost = i, cost
		}
		if cost == 0 {
			break
		}
	}
	if pick < 0 {
		return newTaskSet(job)
	}
	ts := e.sets[pick]
	last := len(e.sets) - 1
	e.sets[pick] = e.sets[last]
	e.sets[last] = nil
	e.sets = e.sets[:last]
	if ts.deps.Job() != job {
		ts.reshape(job)
	}
	return ts
}

// putSet rewinds a task set and frees it, so a free set is always clean.
func (e *Engine) putSet(ts *taskSet) {
	ts.rewind()
	e.sets = append(e.sets, ts)
}
