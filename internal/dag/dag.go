// Package dag models the execution plan of a data-parallel job: a directed
// acyclic graph of stages, where each stage consists of one or more parallel
// tasks (the paper's "vertices") and edges carry data from stage to stage.
//
// Two edge kinds are distinguished, matching the SCOPE/Dryad plans the paper
// describes (§2.1):
//
//   - OneToOne: task j of the consumer reads a fixed slice of the producer's
//     tasks (pipelined map-like stages). Consumer tasks may start as soon as
//     their own inputs finish.
//   - AllToAll: a full shuffle. Every consumer task reads every producer
//     task, so the consumer cannot start until the entire producer stage has
//     finished — a barrier.
//
// The graph is immutable after Build; simulators hold indices into it.
package dag

import (
	"fmt"
	"slices"
	"sort"

	"github.com/jockeysim/jockey/internal/invariant"
	"time"
)

// EdgeKind describes how tasks of a consumer stage depend on the producer.
type EdgeKind int

const (
	// OneToOne connects each consumer task to a proportional slice of
	// producer tasks.
	OneToOne EdgeKind = iota
	// AllToAll is a full shuffle; it acts as a barrier.
	AllToAll
)

func (k EdgeKind) String() string {
	switch k {
	case OneToOne:
		return "one-to-one"
	case AllToAll:
		return "all-to-all"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is a dataflow dependency between two stages, identified by index into
// Job.Stages.
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// Stage is one operator of the plan (map, reduce, join, ...) split into
// Tasks parallel tasks.
type Stage struct {
	Name  string
	Tasks int
	// InputGB is the amount of data this stage reads, in gigabytes. It is
	// carried for reporting (Table 2's "total data read") and does not
	// affect scheduling.
	InputGB float64
}

// Job is a validated, immutable execution plan.
type Job struct {
	Name   string
	Stages []Stage
	Edges  []Edge

	inputs  [][]Edge // per stage, incoming edges
	outputs [][]Edge // per stage, outgoing edges
	// oneToOneOut lists, per stage, its one-to-one outgoing edges sorted by
	// consumer stage: the order in which a Tracker visits consumers.
	oneToOneOut [][]Edge
	topo        []int // topological order of stage indices
}

// Builder accumulates stages and edges and produces a validated Job.
type Builder struct {
	name   string
	stages []Stage
	edges  []edgeByName
	err    error
}

type edgeByName struct {
	from, to string
	kind     EdgeKind
}

// NewBuilder starts a plan for a job with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Stage adds a stage with the given task count. It returns the builder for
// chaining. Errors (duplicate name, non-positive tasks) are deferred to
// Build.
func (b *Builder) Stage(name string, tasks int) *Builder {
	return b.StageData(name, tasks, 0)
}

// StageData adds a stage annotated with the gigabytes of input it reads.
func (b *Builder) StageData(name string, tasks int, inputGB float64) *Builder {
	if b.err != nil {
		return b
	}
	if name == "" {
		b.err = fmt.Errorf("dag: job %q: stage with empty name", b.name)
		return b
	}
	if tasks <= 0 {
		b.err = fmt.Errorf("dag: job %q: stage %q has %d tasks; need at least 1", b.name, name, tasks)
		return b
	}
	for _, s := range b.stages {
		if s.Name == name {
			b.err = fmt.Errorf("dag: job %q: duplicate stage %q", b.name, name)
			return b
		}
	}
	b.stages = append(b.stages, Stage{Name: name, Tasks: tasks, InputGB: inputGB})
	return b
}

// Edge adds a dataflow edge between two named stages.
func (b *Builder) Edge(from, to string, kind EdgeKind) *Builder {
	if b.err != nil {
		return b
	}
	b.edges = append(b.edges, edgeByName{from: from, to: to, kind: kind})
	return b
}

// Build validates the accumulated plan and returns the immutable Job.
func (b *Builder) Build() (*Job, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stages) == 0 {
		return nil, fmt.Errorf("dag: job %q has no stages", b.name)
	}
	j := &Job{
		Name:   b.name,
		Stages: append([]Stage(nil), b.stages...),
	}
	byName := make(map[string]int, len(j.Stages))
	for i, s := range j.Stages {
		byName[s.Name] = i
	}
	seen := make(map[[2]int]bool)
	for _, e := range b.edges {
		from, ok := byName[e.from]
		if !ok {
			return nil, fmt.Errorf("dag: job %q: edge from unknown stage %q", b.name, e.from)
		}
		to, ok := byName[e.to]
		if !ok {
			return nil, fmt.Errorf("dag: job %q: edge to unknown stage %q", b.name, e.to)
		}
		if from == to {
			return nil, fmt.Errorf("dag: job %q: self-edge on stage %q", b.name, e.from)
		}
		if seen[[2]int{from, to}] {
			return nil, fmt.Errorf("dag: job %q: duplicate edge %q -> %q", b.name, e.from, e.to)
		}
		seen[[2]int{from, to}] = true
		j.Edges = append(j.Edges, Edge{From: from, To: to, Kind: e.kind})
	}
	j.inputs = make([][]Edge, len(j.Stages))
	j.outputs = make([][]Edge, len(j.Stages))
	j.oneToOneOut = make([][]Edge, len(j.Stages))
	for _, e := range j.Edges {
		j.inputs[e.To] = append(j.inputs[e.To], e)
		j.outputs[e.From] = append(j.outputs[e.From], e)
		if e.Kind == OneToOne {
			j.oneToOneOut[e.From] = append(j.oneToOneOut[e.From], e)
		}
	}
	for _, out := range j.oneToOneOut {
		slices.SortFunc(out, func(a, b Edge) int { return a.To - b.To })
	}
	topo, err := j.topoSort()
	if err != nil {
		return nil, err
	}
	j.topo = topo
	return j, nil
}

// MustBuild is Build that panics on error, for static plan definitions.
func (b *Builder) MustBuild() *Job {
	j, err := b.Build()
	invariant.NoErr(err, "dag: MustBuild on a static plan definition")
	return j
}

// topoSort computes a deterministic topological order from Stages and Edges.
func (j *Job) topoSort() ([]int, error) {
	indeg := make([]int, len(j.Stages))
	succ := make([][]int, len(j.Stages))
	for _, e := range j.Edges {
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], e.To)
	}
	// Deterministic order: among ready stages, pick the lowest index.
	var ready []int
	for i := range j.Stages {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, len(j.Stages))
	for len(ready) > 0 {
		s := ready[0]
		ready = ready[1:]
		order = append(order, s)
		var unlocked []int
		for _, to := range succ[s] {
			indeg[to]--
			if indeg[to] == 0 {
				unlocked = append(unlocked, to)
			}
		}
		sort.Ints(unlocked)
		ready = mergeSorted(ready, unlocked)
	}
	if len(order) != len(j.Stages) {
		return nil, fmt.Errorf("dag: job %q contains a cycle", j.Name)
	}
	return order, nil
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		if a[i] <= b[k] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[k])
			k++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[k:]...)
	return out
}

// NumStages returns the number of stages.
func (j *Job) NumStages() int { return len(j.Stages) }

// Inputs returns the incoming edges of stage s. The slice is owned by the Job.
func (j *Job) Inputs(s int) []Edge { return j.inputs[s] }

// Outputs returns the outgoing edges of stage s. The slice is owned by the Job.
func (j *Job) Outputs(s int) []Edge { return j.outputs[s] }

// TopoOrder returns stage indices in a deterministic topological order.
// The slice is owned by the Job.
func (j *Job) TopoOrder() []int { return j.topo }

// IsBarrier reports whether stage s has at least one all-to-all input, i.e.
// it cannot start until one of its producers completes entirely.
func (j *Job) IsBarrier(s int) bool {
	for _, e := range j.inputs[s] {
		if e.Kind == AllToAll {
			return true
		}
	}
	return false
}

// NumBarrierStages counts stages with at least one all-to-all input
// (Table 2's "number of barrier stages").
func (j *Job) NumBarrierStages() int {
	n := 0
	for s := range j.Stages {
		if j.IsBarrier(s) {
			n++
		}
	}
	return n
}

// TotalTasks returns the total number of tasks (vertices) across all stages.
func (j *Job) TotalTasks() int {
	n := 0
	for _, s := range j.Stages {
		n += s.Tasks
	}
	return n
}

// TotalInputGB sums the per-stage input sizes.
func (j *Job) TotalInputGB() float64 {
	var gb float64
	for _, s := range j.Stages {
		gb += s.InputGB
	}
	return gb
}

// DepRange returns the half-open range [lo, hi) of producer task indices
// that task `task` of the consumer depends on across edge e. For AllToAll
// edges this is the whole producer stage. For OneToOne edges the producer's
// tasks are split proportionally among consumer tasks, so that equal task
// counts give the identity mapping.
func (j *Job) DepRange(e Edge, task int) (lo, hi int) {
	n := j.Stages[e.From].Tasks
	if e.Kind == AllToAll {
		return 0, n
	}
	m := j.Stages[e.To].Tasks
	lo = task * n / m
	hi = (task + 1) * n / m
	if hi <= lo {
		// More consumers than producers: several consumer tasks share one
		// producer task.
		hi = lo + 1
		if hi > n {
			lo, hi = n-1, n
		}
	}
	return lo, hi
}

// consumerRange is DepRange's inverse on a one-to-one edge: the half-open
// range [lo, hi) of consumer tasks whose DepRange holds producer task p.
// When the producer stage is the wider (n >= m), each consumer reads a
// contiguous block of producers, so p has exactly one consumer; otherwise
// consumer c reads producer floor(c*n/m) alone, and those with that floor
// equal to p form [ceil(p*m/n), ceil((p+1)*m/n)).
func (j *Job) consumerRange(e Edge, p int) (lo, hi int) {
	n, m := j.Stages[e.From].Tasks, j.Stages[e.To].Tasks
	if n >= m {
		c := ((p+1)*m - 1) / n
		return c, c + 1
	}
	return (p*m + n - 1) / n, ((p+1)*m + n - 1) / n
}

// CriticalPath returns the length of the longest stage path through the job,
// where stage s contributes stageCost(s). This is the job's minimum possible
// latency at infinite parallelism — the feasibility bound for deadlines
// (§2.2) and the serial term of the Amdahl model (§4.1).
func (j *Job) CriticalPath(stageCost func(stage int) time.Duration) time.Duration {
	longest := j.LongestPathsFrom(stageCost)
	var best time.Duration
	for _, v := range longest {
		if v > best {
			best = v
		}
	}
	return best
}

// LongestPathsFrom returns, for each stage s, the length of the longest path
// that starts at s (inclusive of s's own cost) and follows edges to a leaf —
// the paper's L_s plus the stage's own cost. Costs are supplied per stage.
func (j *Job) LongestPathsFrom(stageCost func(stage int) time.Duration) []time.Duration {
	out := make([]time.Duration, len(j.Stages))
	// Walk in reverse topological order so successors are resolved first.
	for i := len(j.topo) - 1; i >= 0; i-- {
		s := j.topo[i]
		var best time.Duration
		for _, e := range j.outputs[s] {
			if out[e.To] > best {
				best = out[e.To]
			}
		}
		out[s] = best + stageCost(s)
	}
	return out
}

func (j *Job) String() string {
	return fmt.Sprintf("job %q: %d stages (%d barrier), %d vertices",
		j.Name, j.NumStages(), j.NumBarrierStages(), j.TotalTasks())
}
