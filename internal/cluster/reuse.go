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
//   - jobRun arenas are pooled by plan identity (*dag.Job), so a workload
//     whose plans are themselves reused across runs (workload.BackgroundPool,
//     the experiment jobs A..G, the surge tenant) stops allocating per-job
//     state once its pools cover a run's jobs. Submit does O(1) work per job
//     and, on a warm engine, allocates nothing: an arena gets its per-task
//     arrays (the dag.Tracker, the slot table, the drift factors) only when
//     a job of its plan first arrives, and recycle rewinds them after a run
//     its job arrived in. A paper replay submits background jobs over six
//     hours and ends when its SLO job completes, so most of them never
//     arrive and never cost a per-task array;
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
	c      Cluster
	arenas map[*dag.Job][]*jobRun
}

// NewEngine returns an empty reusable engine.
func NewEngine() *Engine {
	return &Engine{arenas: make(map[*dag.Job][]*jobRun)}
}

// Reset recycles the previous run's arenas and re-initializes the engine's
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

// recycle returns a jobRun's arena to the pool, rewinding its per-task
// arrays if its job arrived, so a pooled arena is always clean. Still-running
// attempts (background jobs may be mid-flight when the last tracked job
// completes and Run returns) need no other release: the whole taskStore
// resets with the cluster.
func (e *Engine) recycle(jr *jobRun) {
	if jr.arrived {
		jr.rewind()
	}
	// Drop per-run references that would otherwise pin profiles, policies,
	// and callbacks in memory between runs.
	jr.cfg = JobConfig{}
	jr.p = nil
	jr.result = Result{}
	e.arenas[jr.job] = append(e.arenas[jr.job], jr)
}

// takeArena pops a pooled arena for the plan, or returns nil when none is
// free (the same plan can be live several times in one run).
//
//jockey:hotpath
func (e *Engine) takeArena(job *dag.Job) *jobRun {
	s := e.arenas[job]
	if len(s) == 0 {
		return nil
	}
	jr := s[len(s)-1]
	e.arenas[job] = s[:len(s)-1]
	return jr
}
