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

// TestReadyRingMatchesSliceFIFO diffs the ready ring against a plain slice
// FIFO over seeded random MarkReady, Requeue, Pop, Peek and Reset sequences
// that queue each task at most once at a time. The plans are small, so the
// queue wraps around the end of the ring many times; the test fails if it
// never does.
func TestReadyRingMatchesSliceFIFO(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		b := NewBuilder("ring").Stage("a", 2+r.IntN(11))
		if r.IntN(2) == 0 {
			b.Stage("b", 1+r.IntN(12)).Edge("a", "b", AllToAll)
		}
		j := b.MustBuild()
		var tr Tracker
		tr.Init(j)
		var refs []TaskRef // every task of the plan
		for s, st := range j.Stages {
			for task := range st.Tasks {
				refs = append(refs, TaskRef{s, task})
			}
		}
		var want []TaskRef // the reference FIFO
		queued := make([]bool, len(refs))
		attempts := make([]int, len(refs))
		wrapped := false
		for step := range 4000 {
			switch op := r.IntN(10); {
			case op < 4: // queue a task that is not queued, fresh or as a retry
				k := r.IntN(len(refs))
				if queued[k] {
					continue
				}
				ref := refs[k]
				if op < 2 {
					tr.MarkReady(time.Duration(step), ref.Stage, ref.Task)
				} else {
					tr.Requeue(time.Duration(step), ref.Stage, ref.Task)
					attempts[k]++
				}
				queued[k] = true
				want = append(want, ref)
				if got := tr.QueuedAt(ref.Stage, ref.Task); got != time.Duration(step) {
					t.Fatalf("seed %d step %d: %v queued at %v", seed, step, ref, got)
				}
			case op < 8:
				got, ok := tr.Pop()
				if ok != (len(want) > 0) || ok && got != want[0] {
					t.Fatalf("seed %d step %d: Pop = %v, %v; want %v", seed, step, got, ok, want)
				}
				if ok {
					want = want[1:]
					queued[tr.Index(got.Stage, got.Task)] = false
				}
			case op < 9:
				got, ok := tr.Peek()
				if ok != (len(want) > 0) || ok && got != want[0] {
					t.Fatalf("seed %d step %d: Peek = %v, %v; want %v", seed, step, got, ok, want)
				}
			default:
				if r.IntN(20) == 0 {
					tr.Reset()
					want = want[:0]
					clear(queued)
					clear(attempts)
				}
			}
			if tr.Len() != len(want) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, tr.Len(), len(want))
			}
			wrapped = wrapped || tr.head+tr.n > len(tr.ready)
		}
		for k, ref := range refs {
			if got := tr.Attempt(ref.Stage, ref.Task); got != attempts[k] {
				t.Fatalf("seed %d: %v at attempt %d, want %d", seed, ref, got, attempts[k])
			}
		}
		if !wrapped {
			t.Fatalf("seed %d: the queue never wrapped around the ring", seed)
		}
	}
}

// TestWarmTrackerAllocatesNothing: once Init has run, a whole run of
// Reset, Seed, Pop, Requeue and Complete allocates nothing.
func TestWarmTrackerAllocatesNothing(t *testing.T) {
	j := NewBuilder("warm").Stage("m", 200).Stage("r", 20).Edge("m", "r", AllToAll).MustBuild()
	var tr Tracker
	tr.Init(j)
	allocs := testing.AllocsPerRun(20, func() {
		tr.Reset()
		tr.Seed(0)
		for ref, ok := tr.Pop(); ok; ref, ok = tr.Pop() {
			if tr.Attempt(ref.Stage, ref.Task) < 2 {
				tr.Requeue(1, ref.Stage, ref.Task)
				continue
			}
			tr.Complete(1, ref.Stage, ref.Task)
		}
	})
	if allocs != 0 || tr.Left() != 0 {
		t.Fatalf("warm run allocated %v times and left %d tasks, want 0 and 0", allocs, tr.Left())
	}
}

// TestFreshFIFOHoldsEveryTask pins the ready ring's storage: Init gives it
// one slot per task of the plan, a requeue-heavy run neither resizes nor
// moves it, and re-Init to a smaller plan reuses the same array, resliced to
// the new task count.
func TestFreshFIFOHoldsEveryTask(t *testing.T) {
	big := NewBuilder("big").Stage("m", 300).Stage("r", 40).Edge("m", "r", AllToAll).MustBuild()
	var tr Tracker
	tr.Init(big)
	if len(tr.ready) != big.TotalTasks() {
		t.Fatalf("ready ring has %d slots after Init, want the plan's %d tasks", len(tr.ready), big.TotalTasks())
	}
	backing := &tr.ready[0]
	drain := func() {
		tr.Seed(0)
		for ref, ok := tr.Pop(); ok; ref, ok = tr.Pop() {
			if tr.Attempt(ref.Stage, ref.Task) < 3 {
				tr.Requeue(1, ref.Stage, ref.Task)
				continue
			}
			tr.Complete(1, ref.Stage, ref.Task)
		}
		if tr.Left() != 0 {
			t.Fatalf("run left %d tasks", tr.Left())
		}
	}
	drain()
	if len(tr.ready) != big.TotalTasks() || &tr.ready[0] != backing {
		t.Fatalf("requeue-heavy run left the ring at %d slots (moved: %v)", len(tr.ready), &tr.ready[0] != backing)
	}
	small := NewBuilder("small").Stage("m", 25).Stage("r", 5).Edge("m", "r", AllToAll).MustBuild()
	tr.Init(small)
	if len(tr.ready) != small.TotalTasks() || &tr.ready[0] != backing {
		t.Fatalf("re-Init to %d tasks left the ring at %d slots (moved: %v)",
			small.TotalTasks(), len(tr.ready), &tr.ready[0] != backing)
	}
	drain()
}

// TestTrackableLimits pins the int32 limit of a Tracker: a plan with more
// than math.MaxInt32 tasks is rejected with a PlanTooLargeError naming the
// job and its task count, and a plan at the limit passes. The limit is on
// tasks alone: however densely one-to-one edges join a plan's stages, a
// plan within the task limit passes. Every stage fits int32 task indices.
func TestTrackableLimits(t *testing.T) {
	// n stages of w tasks, every earlier stage joined one-to-one to every
	// later one: n*w tasks and n*(n-1)/2*w dependency pairs.
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
		job   *Job
		tasks int
		ok    bool
	}{
		{NewBuilder("at-limit").Stage("a", math.MaxInt32-2).Stage("b", 2).Edge("a", "b", AllToAll).MustBuild(), math.MaxInt32, true},
		{NewBuilder("tasks").Stage("a", math.MaxInt32).Stage("b", 2).Edge("a", "b", AllToAll).MustBuild(), math.MaxInt32 + 2, false},
		{complete("dense", 5, 1<<28), 5 << 28, true},
		{complete("dense-wide", 3, 1<<29), 3 << 29, true},
		{complete("dense-over", 2, 1<<30+1), 1<<31 + 2, false},
	} {
		err := Trackable(tc.job)
		var tooLarge *PlanTooLargeError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: Trackable = %v, want nil", tc.job.Name, err)
		case !tc.ok && !errors.As(err, &tooLarge):
			t.Errorf("%s: Trackable = %v, want a PlanTooLargeError", tc.job.Name, err)
		case !tc.ok && (tooLarge.Job != tc.job.Name || tooLarge.Tasks != tc.tasks):
			t.Errorf("%s: Trackable = %+v, want %d tasks", tc.job.Name, *tooLarge, tc.tasks)
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
