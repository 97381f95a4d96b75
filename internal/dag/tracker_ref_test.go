package dag

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// refTracker is the retired Tracker that stored the plan's one-to-one
// consumer adjacency and every task's base dependency count, kept as the
// reference the derived ranges are diffed against. Init builds the
// adjacency by walking every consumer task's DepRange, so it does not rely
// on consumerRange.
type refTracker struct {
	n, head int
	ready   []TaskRef

	job *Job
	off []int
	// cons[consOff[i]:consOff[i+1]] lists the one-to-one consumers of flat
	// task i: for each stage in index order, each of its one-to-one input
	// edges in Inputs order, the consumer tasks ascending.
	consOff  []int
	cons     []TaskRef
	baseDeps []int

	remDeps   []int
	done      []bool
	attempts  []int
	queuedAt  []time.Duration
	doneCount []int
	left      int
}

func (t *refTracker) Init(job *Job) {
	n := job.NumStages()
	t.job = job
	t.off = make([]int, n+1)
	for s := 0; s < n; s++ {
		t.off[s+1] = t.off[s] + job.Stages[s].Tasks
	}
	total := t.off[n]
	t.baseDeps = make([]int, total)
	t.consOff = make([]int, total+1)
	t.forEachOneToOne(func(producer int, _ TaskRef) { t.consOff[producer+1]++ })
	for i := 0; i < total; i++ {
		t.consOff[i+1] += t.consOff[i]
	}
	t.cons = make([]TaskRef, t.consOff[total])
	cursor := append([]int(nil), t.consOff[:total]...)
	t.forEachOneToOne(func(producer int, c TaskRef) {
		t.cons[cursor[producer]] = c
		cursor[producer]++
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
	t.remDeps = make([]int, total)
	t.done = make([]bool, total)
	t.attempts = make([]int, total)
	t.queuedAt = make([]time.Duration, total)
	t.doneCount = make([]int, n)
	t.ready = make([]TaskRef, total)
	t.Reset()
}

func (t *refTracker) forEachOneToOne(fn func(producer int, consumer TaskRef)) {
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

func (t *refTracker) Reset() {
	copy(t.remDeps, t.baseDeps)
	clear(t.done)
	clear(t.attempts)
	clear(t.queuedAt)
	clear(t.doneCount)
	t.left = len(t.done)
	t.n, t.head = 0, 0
}

func (t *refTracker) PreComplete(fracs []float64) {
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

func (t *refTracker) Seed(now time.Duration) {
	for s, st := range t.job.Stages {
		for task := range st.Tasks {
			if i := t.off[s] + task; t.remDeps[i] == 0 && !t.done[i] {
				t.MarkReady(now, s, task)
			}
		}
	}
}

func (t *refTracker) MarkReady(now time.Duration, stage, task int) {
	t.queuedAt[t.off[stage]+task] = now
	t.ready[(t.head+t.n)%len(t.ready)] = TaskRef{stage, task}
	t.n++
}

func (t *refTracker) Requeue(now time.Duration, stage, task int) {
	t.attempts[t.off[stage]+task]++
	t.MarkReady(now, stage, task)
}

func (t *refTracker) Pop() (TaskRef, bool) {
	ref, ok := t.Peek()
	if ok {
		t.head = (t.head + 1) % len(t.ready)
		t.n--
	}
	return ref, ok
}

func (t *refTracker) Peek() (TaskRef, bool) {
	if t.n == 0 {
		return TaskRef{}, false
	}
	return t.ready[t.head], true
}

func (t *refTracker) Complete(now time.Duration, stage, task int) {
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

// sameTrackers reports the first difference between tr and ref in Len,
// Left, or any task's Attempt or QueuedAt.
func sameTrackers(tr *Tracker, ref *refTracker) error {
	if tr.Len() != ref.n || tr.Left() != ref.left {
		return fmt.Errorf("Len, Left = %d, %d; reference %d, %d", tr.Len(), tr.Left(), ref.n, ref.left)
	}
	for s, st := range ref.job.Stages {
		for task := range st.Tasks {
			i := ref.off[s] + task
			if got := tr.Attempt(s, task); got != ref.attempts[i] {
				return fmt.Errorf("task (%d, %d) at attempt %d, reference %d", s, task, got, ref.attempts[i])
			}
			if got := tr.QueuedAt(s, task); got != ref.queuedAt[i] {
				return fmt.Errorf("task (%d, %d) queued at %v, reference %v", s, task, got, ref.queuedAt[i])
			}
		}
	}
	return nil
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzPlan decodes a plan from the head of data: a stage count (2 to 6),
// each stage's task count (1 to 32), a shuffle of the stage indices, and up
// to 15 edges, each from an earlier to a later stage in shuffled order, of
// either kind. Duplicate edges are dropped. Shuffled indices make edges run
// from higher to lower stage indices too, and edges come in random
// insertion order, so Outputs is not sorted by consumer stage.
func fuzzPlan(data *fuzzBytes) *Job {
	k := 2 + data.next()%5
	b := NewBuilder("fuzz")
	for s := range k {
		b.Stage(fmt.Sprint(s), 1+data.next()%32)
	}
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	for i := k - 1; i > 0; i-- {
		j := data.next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	seen := make(map[[2]int]bool)
	for range data.next() % 16 {
		x, y := data.next(), data.next()
		to := 1 + x%(k-1)
		from := (x >> 3) % to
		if seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		kind := OneToOne
		if y&1 == 1 {
			kind = AllToAll
		}
		b.Edge(fmt.Sprint(perm[from]), fmt.Sprint(perm[to]), kind)
	}
	return b.MustBuild()
}

// FuzzTrackerMatchesReference diffs the Tracker, which derives one-to-one
// consumers and base dependency counts from the plan, against the retired
// adjacency tracker. The input decodes to a plan (fuzzPlan) and then to a
// sequence of Pop, Peek, Complete, Requeue and Reset operations; a Reset
// may pre-complete stage fractions before it seeds. Popped tasks that are
// not done stay running until a Complete or Requeue picks them. After every
// operation the two must agree on what Pop and Peek return, Len, Left, and
// every task's Attempt and QueuedAt; the run then drains to completion
// under the same check.
//
// One Tracker then runs the same operations re-Inited onto a second plan,
// decoded from the input with every byte shifted by one, and back onto the
// first, so it reuses its arrays for a larger plan and a smaller one (or
// grows them for the larger first). After each re-Init it must agree with
// the reference, Inited afresh for the plan.
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<12 {
			return
		}
		data := fuzzBytes(raw)
		job := fuzzPlan(&data)
		shifted := make(fuzzBytes, len(raw))
		for i, b := range raw {
			shifted[i] = b + 1
		}
		other := fuzzPlan(&shifted)
		var tr Tracker
		for i, plan := range []*Job{job, other, job} {
			runAgainstReference(t, &tr, plan, data, i)
		}
	})
}

// runAgainstReference Inits tr for job and runs the operations data decodes
// to on it and on a fresh reference tracker, checking every step. The
// plan's index, round, names it in failures.
func runAgainstReference(t *testing.T, tr *Tracker, job *Job, data fuzzBytes, round int) {
	var ref refTracker
	tr.Init(job)
	ref.Init(job)
	tr.Seed(0)
	ref.Seed(0)
	var running []TaskRef // popped, neither completed nor requeued
	pop := func() error {
		got, ok := tr.Pop()
		want, wantOK := ref.Pop()
		if got != want || ok != wantOK {
			return fmt.Errorf("Pop = %v, %v; reference %v, %v", got, ok, want, wantOK)
		}
		// PreComplete may complete a task before its producers, which
		// queue it again when they complete; a done task does not run.
		if ok && !ref.done[ref.off[got.Stage]+got.Task] {
			running = append(running, got)
		}
		return nil
	}
	take := func(b int) TaskRef {
		k := b % len(running)
		ref := running[k]
		running = append(running[:k], running[k+1:]...)
		return ref
	}
	step := 0
	check := func(op string, err error) {
		if err == nil {
			err = sameTrackers(tr, &ref)
		}
		if err != nil {
			t.Fatalf("plan %d, step %d (%s) on %v: %v", round, step, op, job.Edges, err)
		}
	}
	for len(data) > 0 {
		step++
		now := time.Duration(step)
		switch b := data.next(); b % 8 {
		case 0, 1, 2:
			check("Pop", pop())
		case 3:
			got, ok := tr.Peek()
			want, wantOK := ref.Peek()
			var err error
			if got != want || ok != wantOK {
				err = fmt.Errorf("Peek = %v, %v; reference %v, %v", got, ok, want, wantOK)
			}
			check("Peek", err)
		case 4, 5:
			if len(running) > 0 {
				c := take(b >> 3)
				tr.Complete(now, c.Stage, c.Task)
				ref.Complete(now, c.Stage, c.Task)
			}
			check("Complete", nil)
		case 6:
			if len(running) > 0 {
				c := take(b >> 3)
				tr.Requeue(now, c.Stage, c.Task)
				ref.Requeue(now, c.Stage, c.Task)
			}
			check("Requeue", nil)
		default:
			tr.Reset()
			ref.Reset()
			running = running[:0]
			op := "Reset"
			if b&8 != 0 {
				fracs := make([]float64, job.NumStages())
				for s := range fracs {
					fracs[s] = float64(data.next()) / 200 // above 1 completes the stage
				}
				tr.PreComplete(fracs)
				ref.PreComplete(fracs)
				op = fmt.Sprintf("Reset, PreComplete(%v)", fracs)
			}
			tr.Seed(now)
			ref.Seed(now)
			check(op, nil)
		}
	}
	for {
		step++
		check("drain Pop", pop())
		if len(running) == 0 {
			if tr.Len() == 0 {
				break
			}
			continue
		}
		c := take(0)
		tr.Complete(time.Duration(step), c.Stage, c.Task)
		ref.Complete(time.Duration(step), c.Stage, c.Task)
		check("drain Complete", nil)
	}
	if tr.Left() != 0 {
		t.Fatalf("plan %d drained with %d tasks left", round, tr.Left())
	}
}

// checkConsumerRange checks consumerRange against DepRange on the
// one-to-one edge e, for every producer task: the consumers whose DepRange
// holds the producer must be exactly its consumer range.
func checkConsumerRange(j *Job, e Edge) error {
	n, m := j.Stages[e.From].Tasks, j.Stages[e.To].Tasks
	want := make([][]int, n)
	for c := range m {
		lo, hi := j.DepRange(e, c)
		for p := lo; p < hi; p++ {
			want[p] = append(want[p], c)
		}
	}
	for p := range n {
		lo, hi := j.consumerRange(e, p)
		if hi-lo != len(want[p]) || len(want[p]) > 0 && want[p][0] != lo {
			return fmt.Errorf("%d producers, %d consumers: producer %d has consumers [%d, %d), DepRange gives %v",
				n, m, p, lo, hi, want[p])
		}
	}
	return nil
}

// TestConsumerRangeInvertsDepRange checks consumerRange against DepRange
// exhaustively for up to 64 producer and consumer tasks.
func TestConsumerRangeInvertsDepRange(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for m := 1; m <= 64; m++ {
			j := NewBuilder("range").Stage("p", n).Stage("c", m).Edge("p", "c", OneToOne).MustBuild()
			if err := checkConsumerRange(j, j.Edges[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConsumerRangeNearInt32Limit checks consumerRange at stage widths near
// math.MaxInt32, where p*m and (p+1)*m exceed int32. DepRange's lower bound
// never decreases with the consumer index, so a range is exact when its
// first and last consumers read the producer and their outer neighbours do
// not.
func TestConsumerRangeNearInt32Limit(t *testing.T) {
	const big = math.MaxInt32
	holds := func(j *Job, e Edge, c, p int) bool {
		lo, hi := j.DepRange(e, c)
		return lo <= p && p < hi
	}
	for _, nm := range [][2]int{
		{big, big}, {big, big - 1}, {big - 1, big}, {big, 1}, {1, big},
		{big, 3}, {3, big}, {big / 2, big}, {big, big / 2}, {big - 5, big / 3},
	} {
		n, m := nm[0], nm[1]
		j := NewBuilder("big").Stage("p", n).Stage("c", m).Edge("p", "c", OneToOne).MustBuild()
		e := j.Edges[0]
		for _, p := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
			if p < 0 || p >= n {
				continue
			}
			lo, hi := j.consumerRange(e, p)
			if lo < 0 || hi > m || hi <= lo ||
				!holds(j, e, lo, p) || !holds(j, e, hi-1, p) ||
				lo > 0 && holds(j, e, lo-1, p) || hi < m && holds(j, e, hi, p) {
				t.Errorf("%d producers, %d consumers: producer %d has consumers [%d, %d), which do not match DepRange",
					n, m, p, lo, hi)
			}
		}
	}
}
