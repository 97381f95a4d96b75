package dag

import (
	"fmt"
	"math"
	"time"
)

// TaskRef names one task of a plan by stage and task index.
type TaskRef struct{ Stage, Task int }

// readyCompactMin is the minimum number of consumed entries before the
// ready FIFO compacts (see Pop); small queues never pay the copy.
const readyCompactMin = 1024

// Tracker decides when each task of one plan may run. It is the single
// statement of the edge rule both simulators share: a task is ready once
// every producer task in its one-to-one DepRange slices is done and every
// all-to-all producer stage is complete.
//
// Init derives the plan's part once: the one-to-one consumer adjacency and
// every task's base dependency count. The per-run part is flat, one entry
// per task in (stage, task) order: remaining dependencies, done flags,
// attempt counters and the time each task last became ready, plus per-stage
// done counts, the count of tasks left and the ready FIFO. Reset rewinds it
// in place, so a tracker is reusable across any number of runs of its plan
// and allocates nothing once its FIFO has reached the plan's high-water
// ready count. The FIFO starts with room for every task of the plan.
//
// Per-task counters and adjacency offsets are int32, which bounds a plan to
// math.MaxInt32 tasks and as many one-to-one dependency pairs; callers
// reject larger plans with Trackable before Init.
//
// The order in which tasks become ready fixes dispatch order, and so every
// random draw of a run: Seed enqueues in (stage, task) order, and Complete
// enqueues one-to-one consumers in adjacency order, then all-to-all
// consumers stage by stage in Outputs order, tasks ascending.
type Tracker struct {
	// The ready FIFO comes first: dispatch reads its length for every live
	// job on every pick.
	ready []TaskRef
	head  int

	job *Job
	// off[s] is the flat index of stage s's task 0; off[n] is the task count.
	off []int
	// cons[consOff[i]:consOff[i+1]] lists the one-to-one consumers of flat
	// task i: for each stage in index order, each of its one-to-one input
	// edges in Inputs order, the consumer tasks ascending.
	consOff  []int32
	cons     []TaskRef
	baseDeps []int32

	remDeps   []int32
	done      []bool
	attempts  []int32
	queuedAt  []time.Duration
	doneCount []int
	left      int
}

// PlanTooLargeError reports a plan with more tasks, or more one-to-one
// dependency pairs, than a Tracker's int32 counters and offsets can name.
type PlanTooLargeError struct {
	Job          string
	Tasks, Pairs int
}

func (e *PlanTooLargeError) Error() string {
	return fmt.Sprintf("job %q has %d tasks and %d one-to-one dependency pairs; a dependency tracker supports at most %d of each",
		e.Job, e.Tasks, e.Pairs, math.MaxInt32)
}

// Trackable returns a *PlanTooLargeError if job is too large for a Tracker.
// It costs O(stages + edges), not O(tasks).
func Trackable(job *Job) error {
	if tasks, pairs := job.TotalTasks(), job.oneToOnePairs(); int64(tasks) > math.MaxInt32 || int64(pairs) > math.MaxInt32 {
		return &PlanTooLargeError{Job: job.Name, Tasks: tasks, Pairs: pairs}
	}
	return nil
}

// Init shapes t for job, allocating its arrays, and resets it.
func (t *Tracker) Init(job *Job) {
	n := job.NumStages()
	t.job = job
	t.off = make([]int, n+1)
	for s := 0; s < n; s++ {
		t.off[s+1] = t.off[s] + job.Stages[s].Tasks
	}
	total := t.off[n]
	t.baseDeps = make([]int32, total)
	// Dependency counts: one unit per one-to-one producer task in range,
	// plus one unit per all-to-all input edge (satisfied when the producer
	// stage completes). The adjacency is filled in two passes, counting
	// then placing, in the order Complete must visit it; remDeps, which
	// Reset overwrites, is the placing cursor.
	t.consOff = make([]int32, total+1)
	t.forEachOneToOne(func(producer int, _ TaskRef) { t.consOff[producer+1]++ })
	for i := 0; i < total; i++ {
		t.consOff[i+1] += t.consOff[i]
	}
	t.cons = make([]TaskRef, t.consOff[total])
	t.remDeps = make([]int32, total)
	copy(t.remDeps, t.consOff[:total])
	t.forEachOneToOne(func(producer int, c TaskRef) {
		t.cons[t.remDeps[producer]] = c
		t.remDeps[producer]++
		t.baseDeps[t.off[c.Stage]+c.Task]++
	})
	for s := 0; s < n; s++ {
		for _, edge := range job.Inputs(s) {
			if edge.Kind == AllToAll {
				for i := t.off[s]; i < t.off[s+1]; i++ {
					t.baseDeps[i]++
				}
			}
		}
	}
	t.done = make([]bool, total)
	t.attempts = make([]int32, total)
	t.queuedAt = make([]time.Duration, total)
	t.doneCount = make([]int, n)
	if cap(t.ready) < total {
		t.ready = make([]TaskRef, 0, total)
	}
	t.Reset()
}

// forEachOneToOne calls fn for every (producer task, consumer task) pair a
// one-to-one edge joins, with the producer as a flat index.
func (t *Tracker) forEachOneToOne(fn func(producer int, consumer TaskRef)) {
	job := t.job
	for s := range job.Stages {
		for _, edge := range job.Inputs(s) {
			if edge.Kind != OneToOne {
				continue
			}
			for task := 0; task < job.Stages[s].Tasks; task++ {
				lo, hi := job.DepRange(edge, task)
				for i := lo; i < hi; i++ {
					fn(t.off[edge.From]+i, TaskRef{s, task})
				}
			}
		}
	}
}

// Reset rewinds the per-run state for a fresh run of the plan: nothing
// done, base dependency counts, zero attempts and an empty ready FIFO whose
// capacity is kept.
func (t *Tracker) Reset() {
	copy(t.remDeps, t.baseDeps)
	clear(t.done)
	clear(t.attempts)
	clear(t.queuedAt)
	clear(t.doneCount)
	t.left = len(t.done)
	t.ready = t.ready[:0]
	t.head = 0
}

// PreComplete marks, per stage, the first fracs[s] of its tasks (rounded
// down) as already done, satisfying their consumers exactly as live
// completions would. It leaves the ready FIFO empty; Seed then enqueues
// what the state leaves ready. fracs must be parallel to the stages.
func (t *Tracker) PreComplete(fracs []float64) {
	for s, st := range t.job.Stages {
		k := min(int(fracs[s]*float64(st.Tasks)), st.Tasks)
		for task := 0; task < k; task++ {
			t.Complete(0, s, task)
		}
	}
	t.ready = t.ready[:0]
	t.head = 0
}

// Seed enqueues, in (stage, task) order, every task that is not done and
// has no remaining dependencies.
func (t *Tracker) Seed(now time.Duration) {
	for s, st := range t.job.Stages {
		for task := range st.Tasks {
			if i := t.off[s] + task; t.remDeps[i] == 0 && !t.done[i] {
				t.MarkReady(now, s, task)
			}
		}
	}
}

// MarkReady appends a task to the ready FIFO and stamps its queued time.
//
//jockey:hotpath
func (t *Tracker) MarkReady(now time.Duration, stage, task int) {
	t.queuedAt[t.off[stage]+task] = now
	t.ready = append(t.ready, TaskRef{stage, task})
}

// Requeue counts a task's ended attempt (failed, evicted or killed) and
// puts the task back at the tail of the ready FIFO.
//
//jockey:hotpath
func (t *Tracker) Requeue(now time.Duration, stage, task int) {
	t.attempts[t.off[stage]+task]++
	t.MarkReady(now, stage, task)
}

// Pop dequeues the oldest ready task. The FIFO is a slice plus a head
// index; consumed entries are compacted away (a copy-down, preserving
// order) only once at least readyCompactMin entries are dead AND they make
// up at least half the slice, so the amortized cost per task stays O(1)
// and the backing array stops growing at the run's high-water ready count.
//
//jockey:hotpath
func (t *Tracker) Pop() (TaskRef, bool) {
	if t.head >= len(t.ready) {
		return TaskRef{}, false
	}
	r := t.ready[t.head]
	t.head++
	if t.head >= readyCompactMin && t.head*2 >= len(t.ready) {
		n := copy(t.ready, t.ready[t.head:])
		t.ready = t.ready[:n]
		t.head = 0
	}
	return r, true
}

// Peek returns the oldest ready task without dequeuing it, so a caller
// that may fail to place the task leaves the FIFO and its queued time as
// they were.
//
//jockey:hotpath
func (t *Tracker) Peek() (TaskRef, bool) {
	if t.head >= len(t.ready) {
		return TaskRef{}, false
	}
	return t.ready[t.head], true
}

// Len returns the number of queued ready tasks.
//
//jockey:hotpath
func (t *Tracker) Len() int { return len(t.ready) - t.head }

// Complete marks a task done and enqueues every consumer it leaves with no
// remaining dependencies: its one-to-one consumers in adjacency order, then,
// if its stage just completed, the stage's all-to-all consumers in Outputs
// order, tasks ascending.
//
//jockey:hotpath
func (t *Tracker) Complete(now time.Duration, stage, task int) {
	i := t.off[stage] + task
	t.done[i] = true
	t.doneCount[stage]++
	t.left--
	for _, c := range t.cons[t.consOff[i]:t.consOff[i+1]] {
		j := t.off[c.Stage] + c.Task
		t.remDeps[j]--
		if t.remDeps[j] == 0 {
			t.MarkReady(now, c.Stage, c.Task)
		}
	}
	if t.doneCount[stage] != t.job.Stages[stage].Tasks {
		return
	}
	for _, edge := range t.job.Outputs(stage) {
		if edge.Kind != AllToAll {
			continue
		}
		base := t.off[edge.To]
		for c := range t.job.Stages[edge.To].Tasks {
			t.remDeps[base+c]--
			if t.remDeps[base+c] == 0 {
				t.MarkReady(now, edge.To, c)
			}
		}
	}
}

// Left returns the number of tasks not yet done.
//
//jockey:hotpath
func (t *Tracker) Left() int { return t.left }

// Attempt returns a task's attempt number: how many of its attempts have
// ended without completing it.
//
//jockey:hotpath
func (t *Tracker) Attempt(stage, task int) int { return int(t.attempts[t.off[stage]+task]) }

// QueuedAt returns when a task last entered the ready FIFO.
//
//jockey:hotpath
func (t *Tracker) QueuedAt(stage, task int) time.Duration { return t.queuedAt[t.off[stage]+task] }

// Index returns a task's position in (stage, task) order, for callers that
// keep their own flat per-task arrays beside the tracker's.
//
//jockey:hotpath
func (t *Tracker) Index(stage, task int) int { return t.off[stage] + task }

// FracDone writes each stage's completed fraction into dst, which must be
// parallel to the stages.
func (t *Tracker) FracDone(dst []float64) {
	for s, n := range t.doneCount {
		dst[s] = float64(n) / float64(t.job.Stages[s].Tasks)
	}
}
