package dag

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// TestReadyFIFOCompaction pins the ready-queue policy: entries are served
// strictly FIFO, compaction (copy-down at >= readyCompactMin dead entries
// occupying >= half the slice) preserves both order and content, and Reset
// rewinds the queue while keeping its capacity.
func TestReadyFIFOCompaction(t *testing.T) {
	var tr Tracker
	tr.Init(NewBuilder("fifo").Stage("s", 4096).MustBuild())
	// Push 3000, pop interleaved.
	next := 0
	popped := 0
	for next < 3000 {
		tr.MarkReady(0, 0, 0) // identity tracked via order
		next++
		if next%2 == 0 {
			if _, ok := tr.Pop(); !ok {
				t.Fatal("pop failed with entries pending")
			}
			popped++
		}
	}
	for {
		if _, ok := tr.Pop(); !ok {
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
	if len(tr.ready) > 2*readyCompactMin {
		t.Errorf("ready slice holds %d entries after drain; compaction did not run", len(tr.ready))
	}
	// FIFO order with distinct refs across a compaction boundary.
	capBefore := cap(tr.ready)
	tr.Reset()
	if tr.Len() != 0 || cap(tr.ready) != capBefore {
		t.Fatalf("Reset left %d entries and capacity %d, want 0 and %d", tr.Len(), cap(tr.ready), capBefore)
	}
	for i := 0; i < 4096; i++ {
		tr.MarkReady(0, 0, i)
	}
	for i := 0; i < 4096; i++ {
		ref, ok := tr.Pop()
		if !ok || ref.Task != i {
			t.Fatalf("FIFO order broken at %d: got task %d ok=%v", i, ref.Task, ok)
		}
	}
}

// TestFreshFIFOHoldsEveryTask pins that Init sizes the ready FIFO for the
// whole plan, so a first run that never requeues never grows it.
func TestFreshFIFOHoldsEveryTask(t *testing.T) {
	j := NewBuilder("wide").Stage("m", 300).Stage("r", 40).Edge("m", "r", AllToAll).MustBuild()
	var tr Tracker
	tr.Init(j)
	if cap(tr.ready) != j.TotalTasks() {
		t.Fatalf("fresh ready FIFO has capacity %d, want the plan's %d tasks", cap(tr.ready), j.TotalTasks())
	}
	backing := &tr.ready[:1][0]
	tr.Seed(0)
	for ref, ok := tr.Pop(); ok; ref, ok = tr.Pop() {
		tr.Complete(0, ref.Stage, ref.Task)
	}
	if tr.Left() != 0 || &tr.ready[:1][0] != backing {
		t.Fatalf("run left %d tasks and moved the ready FIFO", tr.Left())
	}
}

// TestTrackableLimits pins the int32 limits of a Tracker: a plan with more
// than math.MaxInt32 tasks, or fewer tasks but more one-to-one dependency
// pairs, is rejected with a PlanTooLargeError naming the job, and a plan at
// the limits passes. Every stage fits int32 task indices.
func TestTrackableLimits(t *testing.T) {
	// n stages of w tasks, every earlier stage joined one-to-one to every
	// later one: n*w tasks and n*(n-1)/2*w pairs.
	complete := func(name string, n, w int) *Job {
		b := NewBuilder(name)
		for i := range n {
			b.Stage(fmt.Sprint(i), w)
			for from := range i {
				b.Edge(fmt.Sprint(from), fmt.Sprint(i), OneToOne)
			}
		}
		return b.MustBuild()
	}
	for _, tc := range []struct {
		job          *Job
		tasks, pairs int
		ok           bool
	}{
		{NewBuilder("at-limit").Stage("a", math.MaxInt32-2).Stage("b", 2).Edge("a", "b", AllToAll).MustBuild(), math.MaxInt32, 0, true},
		{NewBuilder("tasks").Stage("a", math.MaxInt32).Stage("b", 2).Edge("a", "b", AllToAll).MustBuild(), math.MaxInt32 + 2, 0, false},
		{complete("pairs", 5, 1<<28), 5 << 28, 10 << 28, false},
		{complete("pairs-at-limit", 3, 1<<29), 3 << 29, 3 << 29, true},
	} {
		err := Trackable(tc.job)
		var tooLarge *PlanTooLargeError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: Trackable = %v, want nil", tc.job.Name, err)
		case !tc.ok && !errors.As(err, &tooLarge):
			t.Errorf("%s: Trackable = %v, want a PlanTooLargeError", tc.job.Name, err)
		case !tc.ok && (tooLarge.Job != tc.job.Name || tooLarge.Tasks != tc.tasks || tooLarge.Pairs != tc.pairs):
			t.Errorf("%s: Trackable = %+v, want %d tasks and %d pairs", tc.job.Name, *tooLarge, tc.tasks, tc.pairs)
		}
	}
}

// checkTracker drives a Tracker over j and compares it with the definition
// of readiness. Tasks complete in a random order, each taken from the ready
// FIFO, and one attempt in four fails and is requeued instead. After every
// step the queued, not yet completed tasks must be exactly the from-scratch
// ready set, and every task must be queued once. Then pre-completing random
// stage fractions must leave the same ready set as completing those tasks
// live.
func checkTracker(j *Job, r *rand.Rand) error {
	var tr Tracker
	tr.Init(j)
	tr.Seed(0)
	done := make([][]bool, j.NumStages())
	queued := make([][]int, j.NumStages())
	for s, st := range j.Stages {
		done[s] = make([]bool, st.Tasks)
		queued[s] = make([]int, st.Tasks)
	}
	var pool []TaskRef // queued and not yet completed
	for step := 1; ; step++ {
		for {
			ref, ok := tr.Pop()
			if !ok {
				break
			}
			if queued[ref.Stage][ref.Task]++; queued[ref.Stage][ref.Task] > 1 {
				return fmt.Errorf("step %d: %v queued twice", step, ref)
			}
			pool = append(pool, ref)
		}
		if err := sameReadySet(pool, definitionReady(j, done)); err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
		if len(pool) == 0 {
			break
		}
		k := r.IntN(len(pool))
		ref := pool[k]
		pool[k] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if r.IntN(4) == 0 {
			before := tr.Attempt(ref.Stage, ref.Task)
			tr.Requeue(time.Duration(step), ref.Stage, ref.Task)
			if got := tr.Attempt(ref.Stage, ref.Task); got != before+1 {
				return fmt.Errorf("step %d: Requeue left %v at attempt %d, want %d", step, ref, got, before+1)
			}
			if got := tr.QueuedAt(ref.Stage, ref.Task); got != time.Duration(step) {
				return fmt.Errorf("step %d: Requeue stamped %v at %v", step, ref, got)
			}
			queued[ref.Stage][ref.Task]-- // a retry, not a new readiness
			continue
		}
		tr.Complete(time.Duration(step), ref.Stage, ref.Task)
		done[ref.Stage][ref.Task] = true
	}
	if tr.Left() != 0 {
		return fmt.Errorf("no task ready with %d left", tr.Left())
	}
	for s := range queued {
		for task, n := range queued[s] {
			if n != 1 {
				return fmt.Errorf("task (%d, %d) queued %d times", s, task, n)
			}
		}
	}

	// Pre-completion against live completion of the same prefixes.
	fracs := make([]float64, j.NumStages())
	for s := range fracs {
		fracs[s] = 1.2 * r.Float64() // above 1 clamps to the whole stage
	}
	var pre, live Tracker
	pre.Init(j)
	pre.PreComplete(fracs)
	pre.Seed(0)
	live.Init(j)
	live.Seed(0)
	for s, st := range j.Stages {
		clear(done[s])
		for task := 0; task < min(int(fracs[s]*float64(st.Tasks)), st.Tasks); task++ {
			live.Complete(0, s, task)
			done[s][task] = true
		}
	}
	want := definitionReady(j, done)
	var preReady, liveReady []TaskRef
	for ref, ok := pre.Pop(); ok; ref, ok = pre.Pop() {
		preReady = append(preReady, ref)
	}
	for ref, ok := live.Pop(); ok; ref, ok = live.Pop() {
		if !done[ref.Stage][ref.Task] {
			liveReady = append(liveReady, ref)
		}
	}
	if err := sameReadySet(preReady, want); err != nil {
		return fmt.Errorf("pre-completed %v: %v", fracs, err)
	}
	if err := sameReadySet(liveReady, want); err != nil {
		return fmt.Errorf("live-completed %v: %v", fracs, err)
	}
	if pre.Left() != live.Left() {
		return fmt.Errorf("pre-completed %v: %d tasks left, live %d", fracs, pre.Left(), live.Left())
	}
	return nil
}

// readySet is the set of tasks that may run, per stage and task, with its
// size.
type readySet struct {
	ready [][]bool
	n     int
}

// definitionReady scans the plan from scratch for the tasks that may run:
// not done, every one-to-one producer in DepRange done, and every
// all-to-all producer stage complete.
func definitionReady(j *Job, done [][]bool) readySet {
	complete := make([]bool, j.NumStages())
	for s := range done {
		complete[s] = !slices.Contains(done[s], false)
	}
	set := readySet{ready: make([][]bool, j.NumStages())}
	for s, st := range j.Stages {
		set.ready[s] = make([]bool, st.Tasks)
		for task := 0; task < st.Tasks; task++ {
			if done[s][task] {
				continue
			}
			ok := true
			for _, e := range j.Inputs(s) {
				if e.Kind == AllToAll {
					ok = ok && complete[e.From]
					continue
				}
				lo, hi := j.DepRange(e, task)
				ok = ok && !slices.Contains(done[e.From][lo:hi], false)
			}
			if ok {
				set.ready[s][task] = true
				set.n++
			}
		}
	}
	return set
}

// sameReadySet reports how got, which holds no duplicates, differs from
// want.
func sameReadySet(got []TaskRef, want readySet) error {
	for _, ref := range got {
		if !want.ready[ref.Stage][ref.Task] {
			return fmt.Errorf("%v is queued but not ready", ref)
		}
	}
	if len(got) != want.n {
		return fmt.Errorf("%d tasks queued, %d ready by definition", len(got), want.n)
	}
	return nil
}
