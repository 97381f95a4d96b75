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
//     array sized by the plan) are pooled by plan identity (*dag.Job). A job
//     takes a rewound set of its plan when it arrives and returns it when it
//     completes, so the engine holds one set per job of a plan that was live
//     at once, not one per job that arrived. A workload whose plans are
//     themselves reused across runs (workload.BackgroundPool, the experiment
//     jobs A..G, the surge tenant, a fleet's job templates) stops allocating
//     them once its pools cover a run's peak concurrency;
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
	sets map[*dag.Job][]*taskSet
}

// NewEngine returns an empty reusable engine.
func NewEngine() *Engine {
	return &Engine{sets: make(map[*dag.Job][]*taskSet)}
}

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
// still live when Run returned to its pool. Such a job's attempts
// (background jobs may be mid-flight when the last tracked job completes)
// need no other release: the whole taskStore resets with the cluster.
func (e *Engine) recycle(jr *jobRun) {
	if jr.taskSet != nil {
		e.putSet(jr.job, jr.taskSet)
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

// takeSet pops a pooled task set of the plan, or allocates one when none is
// free (the same plan can be live several times at once).
func (e *Engine) takeSet(job *dag.Job) *taskSet {
	s := e.sets[job]
	n := len(s)
	if n == 0 {
		return newTaskSet(job)
	}
	ts := s[n-1]
	e.sets[job] = s[:n-1]
	return ts
}

// putSet rewinds a task set and pools it under its plan, so a pooled set is
// always clean.
func (e *Engine) putSet(job *dag.Job, ts *taskSet) {
	ts.rewind()
	e.sets[job] = append(e.sets[job], ts)
}
