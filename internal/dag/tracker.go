package dag

import (
	"fmt"
	"math"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
)

// TaskRef names one task of a plan by stage and task index.
type TaskRef struct{ Stage, Task int }

// readyRef is a ready-ring slot: a TaskRef in 8 bytes.
type readyRef struct{ stage, task int32 }

// Tracker decides when each task of one plan may run. It is the single
// statement of the edge rule both simulators share: a task is ready once
// every producer task in its one-to-one DepRange slices is done and every
// all-to-all producer stage is complete.
//
// A Tracker stores only per-run state, flat, one entry per task in (stage,
// task) order: remaining dependencies, done flags, attempt counters and the
// time each task last became ready, plus per-stage done counts, the count of
// tasks left and the ready FIFO. The plan's part follows from the Job: a
// producer's consumers across a one-to-one edge are DepRange's inverse,
// computed from the two stages' task counts when the producer completes,
// and Reset derives every task's base dependency count from the same ranges.
// Reset rewinds the state in place, so a tracker is reusable across any
// number of runs of its plan and allocates nothing after Init.
//
// The ready FIFO is a ring with one slot per task of the plan. A task is
// queued at most once at a time (it leaves the FIFO before it runs, and only
// an ended attempt or a completed producer queues it again), so the ring
// never fills past the plan's task count and never grows; `-tags
// invariantdebug` builds assert that MarkReady finds room.
//
// Per-task counters are int32, which bounds a plan to math.MaxInt32 tasks
// (a task's dependency count never exceeds the plan's task count); callers
// reject larger plans with Trackable before Init.
//
// The order in which tasks become ready fixes dispatch order, and so every
// random draw of a run: Seed enqueues in (stage, task) order, and Complete
// enqueues one-to-one consumers stage by stage in ascending stage order,
// tasks ascending, then all-to-all consumers stage by stage in Outputs
// order, tasks ascending.
type Tracker struct {
	// The ready FIFO comes first: dispatch reads its length for every live
	// job on every pick. It holds n tasks from ready[head], wrapping at
	// len(ready), the plan's task count.
	n, head int
	ready   []readyRef

	job *Job
	// off[s] is the flat index of stage s's task 0; off[n] is the task count.
	off []int

	remDeps   []int32
	done      []bool
	attempts  []int32
	queuedAt  []time.Duration
	doneCount []int
	left      int
}

// PlanTooLargeError reports a plan with more tasks than a Tracker's int32
// counters can name.
type PlanTooLargeError struct {
	Job   string
	Tasks int
}

func (e *PlanTooLargeError) Error() string {
	return fmt.Sprintf("job %q has %d tasks; a dependency tracker supports at most %d",
		e.Job, e.Tasks, math.MaxInt32)
}

// Trackable returns a *PlanTooLargeError if job is too large for a Tracker.
// It costs O(stages), not O(tasks).
func Trackable(job *Job) error {
	if tasks := job.TotalTasks(); int64(tasks) > math.MaxInt32 {
		return &PlanTooLargeError{Job: job.Name, Tasks: tasks}
	}
	return nil
}

// Init shapes t for job and resets it. It reslices its arrays when their
// capacity holds the plan and allocates only those that fall short, so a
// tracker re-Inited onto a plan no larger than one it has held allocates
// nothing. The ready ring still has exactly one slot per task.
func (t *Tracker) Init(job *Job) {
	n := job.NumStages()
	t.job = job
	t.off = fit(t.off, n+1)
	for s := 0; s < n; s++ {
		t.off[s+1] = t.off[s] + job.Stages[s].Tasks
	}
	total := t.off[n]
	t.remDeps = fit(t.remDeps, total)
	t.done = fit(t.done, total)
	t.attempts = fit(t.attempts, total)
	t.queuedAt = fit(t.queuedAt, total)
	t.doneCount = fit(t.doneCount, n)
	t.ready = fit(t.ready, total)
	t.Reset()
}

// fit returns s resliced to length n, or a new slice of length n when s's
// capacity falls short. It clears nothing.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Job returns the plan t was last Inited for.
func (t *Tracker) Job() *Job { return t.job }

// Reset rewinds the per-run state for a fresh run of the plan: nothing
// done, base dependency counts, zero attempts and an empty ready FIFO.
func (t *Tracker) Reset() {
	t.baseDeps()
	clear(t.done)
	clear(t.attempts)
	clear(t.queuedAt)
	clear(t.doneCount)
	t.left = len(t.done)
	t.n, t.head = 0, 0
}

// baseDeps writes every task's dependency count into remDeps: one unit per
// all-to-all input edge (satisfied when the producer stage completes), plus
// one per producer task in each one-to-one input's DepRange. Every input
// contributes at least one unit, and only a one-to-one input from a wider
// producer stage contributes more, so the rest of the stage is a constant
// fill.
func (t *Tracker) baseDeps() {
	for s, st := range t.job.Stages {
		rem := t.remDeps[t.off[s]:t.off[s+1]]
		inputs := t.job.Inputs(s)
		for c := range rem {
			rem[c] = int32(len(inputs))
		}
		for _, e := range inputs {
			if n, m := t.job.Stages[e.From].Tasks, st.Tasks; e.Kind == OneToOne && n > m {
				for c := range rem {
					lo, hi := t.job.DepRange(e, c)
					rem[c] += int32(hi - lo - 1)
				}
			}
		}
	}
}

// PreComplete marks, per stage, the first fracs[s] of its tasks (rounded
// down) as already done, satisfying their consumers exactly as live
// completions would. A fraction of 1 or more, +Inf included, completes the
// whole stage. It leaves the ready FIFO empty; Seed then enqueues what the
// state leaves ready. fracs must be parallel to the stages and hold no NaN.
func (t *Tracker) PreComplete(fracs []float64) {
	for s, st := range t.job.Stages {
		k := st.Tasks
		if f := fracs[s]; f < 1 {
			k = int(f * float64(st.Tasks))
		}
		for task := 0; task < k; task++ {
			t.Complete(0, s, task)
		}
	}
	t.n, t.head = 0, 0
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
// The task must not be queued already.
//
//jockey:hotpath
func (t *Tracker) MarkReady(now time.Duration, stage, task int) {
	if invariant.Debug && t.n == len(t.ready) {
		t.ringFull(stage, task)
	}
	t.queuedAt[t.off[stage]+task] = now
	i := t.head + t.n
	if i >= len(t.ready) {
		i -= len(t.ready)
	}
	t.ready[i] = readyRef{int32(stage), int32(task)}
	t.n++
}

// ringFull reports a MarkReady that found every slot of the ready ring
// taken: some task was queued twice.
func (t *Tracker) ringFull(stage, task int) {
	invariant.Assertf(false, "dag: job %s: queueing stage %d task %d into a full ready ring of %d slots",
		t.job.Name, stage, task, len(t.ready))
}

// Requeue counts a task's ended attempt (failed, evicted or killed) and
// puts the task back at the tail of the ready FIFO.
//
//jockey:hotpath
func (t *Tracker) Requeue(now time.Duration, stage, task int) {
	t.attempts[t.off[stage]+task]++
	t.MarkReady(now, stage, task)
}

// Pop dequeues the oldest ready task.
//
//jockey:hotpath
func (t *Tracker) Pop() (TaskRef, bool) {
	if t.n == 0 {
		return TaskRef{}, false
	}
	r := t.ready[t.head]
	if t.head++; t.head == len(t.ready) {
		t.head = 0
	}
	t.n--
	return TaskRef{int(r.stage), int(r.task)}, true
}

// Peek returns the oldest ready task without dequeuing it, so a caller
// that may fail to place the task leaves the FIFO and its queued time as
// they were.
//
//jockey:hotpath
func (t *Tracker) Peek() (TaskRef, bool) {
	if t.n == 0 {
		return TaskRef{}, false
	}
	r := t.ready[t.head]
	return TaskRef{int(r.stage), int(r.task)}, true
}

// Len returns the number of queued ready tasks.
//
//jockey:hotpath
func (t *Tracker) Len() int { return t.n }

// Complete marks a task done and enqueues every consumer it leaves with no
// remaining dependencies: its one-to-one consumers stage by stage in
// ascending stage order, tasks ascending, then, if its stage just completed,
// the stage's all-to-all consumers in Outputs order, tasks ascending.
//
//jockey:hotpath
func (t *Tracker) Complete(now time.Duration, stage, task int) {
	t.done[t.off[stage]+task] = true
	t.doneCount[stage]++
	t.left--
	for _, edge := range t.job.oneToOneOut[stage] {
		base := t.off[edge.To]
		lo, hi := t.job.consumerRange(edge, task)
		for c := lo; c < hi; c++ {
			t.remDeps[base+c]--
			if t.remDeps[base+c] == 0 {
				t.MarkReady(now, edge.To, c)
			}
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
