package dag

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// mapReduce builds the canonical two-stage plan the paper's Fig. 3 caption
// describes ("a black circle connected to a blue triangle").
func mapReduce(t testing.TB) *Job {
	t.Helper()
	j, err := NewBuilder("mapreduce").
		StageData("map", 100, 10).
		StageData("reduce", 10, 2).
		Edge("map", "reduce", AllToAll).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// diamond builds extract -> (left, right) -> join.
func diamond(t testing.TB) *Job {
	t.Helper()
	j, err := NewBuilder("diamond").
		Stage("extract", 50).
		Stage("left", 50).
		Stage("right", 25).
		Stage("join", 10).
		Edge("extract", "left", OneToOne).
		Edge("extract", "right", OneToOne).
		Edge("left", "join", AllToAll).
		Edge("right", "join", AllToAll).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestBuildBasics(t *testing.T) {
	j := mapReduce(t)
	if j.NumStages() != 2 {
		t.Fatalf("NumStages = %d", j.NumStages())
	}
	if j.TotalTasks() != 110 {
		t.Errorf("TotalTasks = %d", j.TotalTasks())
	}
	if got := j.TotalInputGB(); got != 12 {
		t.Errorf("TotalInputGB = %v", got)
	}
	if !j.IsBarrier(1) || j.IsBarrier(0) {
		t.Error("barrier detection wrong")
	}
	if j.NumBarrierStages() != 1 {
		t.Errorf("NumBarrierStages = %d", j.NumBarrierStages())
	}
	if s := j.String(); !strings.Contains(s, "mapreduce") {
		t.Errorf("String = %q", s)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
		want string
	}{
		{"empty name", NewBuilder("x").Stage("", 1), "empty name"},
		{"unknown from", NewBuilder("x").Stage("a", 1).Edge("b", "a", OneToOne), "unknown stage"},
		{"unknown to", NewBuilder("x").Stage("a", 1).Edge("a", "b", OneToOne), "unknown stage"},
		{"dup edge", NewBuilder("x").Stage("a", 1).Stage("b", 1).
			Edge("a", "b", OneToOne).Edge("a", "b", AllToAll), "duplicate edge"},
	}
	for _, c := range cases {
		if _, err := c.b.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestBuildRejectsBadGraphs checks that Build refuses every malformed graph
// shape: no stages, a stage without tasks, a repeated stage name, a
// self-edge and a cycle. A profile decoded from JSON is built the same way,
// so these are also the graphs a profile file cannot carry.
func TestBuildRejectsBadGraphs(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
		want string
	}{
		{"empty", NewBuilder("x"), "no stages"},
		{"zero tasks", NewBuilder("x").Stage("a", 0), "at least 1"},
		{"negative tasks", NewBuilder("x").Stage("a", -3), "at least 1"},
		{"dup stage", NewBuilder("x").Stage("a", 1).Stage("a", 1), "duplicate stage"},
		{"self edge", NewBuilder("x").Stage("a", 1).Edge("a", "a", OneToOne), "self-edge"},
		{"cycle", NewBuilder("x").Stage("a", 1).Stage("b", 1).
			Edge("a", "b", OneToOne).Edge("b", "a", OneToOne), "cycle"},
	}
	for _, c := range cases {
		if _, err := c.b.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestBuilderErrorSticks(t *testing.T) {
	b := NewBuilder("x").Stage("a", 0).Stage("b", 1).Edge("a", "b", OneToOne)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "at least 1") {
		t.Fatalf("first error must stick, got %v", err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on invalid plan")
		}
	}()
	NewBuilder("x").MustBuild()
}

func TestTopoOrder(t *testing.T) {
	j := diamond(t)
	pos := make(map[int]int)
	for i, s := range j.TopoOrder() {
		pos[s] = i
	}
	if len(pos) != 4 {
		t.Fatalf("topo order has %d entries", len(pos))
	}
	for _, e := range j.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %v violates topo order", e)
		}
	}
}

// stageIndex returns the index of the named stage, or -1.
func stageIndex(j *Job, name string) int {
	for i, s := range j.Stages {
		if s.Name == name {
			return i
		}
	}
	return -1
}

func TestRootsLeaves(t *testing.T) {
	j := diamond(t)
	var roots, leaves []int
	for s := range j.Stages {
		if len(j.Inputs(s)) == 0 {
			roots = append(roots, s)
		}
		if len(j.Outputs(s)) == 0 {
			leaves = append(leaves, s)
		}
	}
	if len(roots) != 1 || roots[0] != stageIndex(j, "extract") {
		t.Errorf("roots = %v", roots)
	}
	if len(leaves) != 1 || leaves[0] != stageIndex(j, "join") {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestInputsOutputs(t *testing.T) {
	j := diamond(t)
	ex := stageIndex(j, "extract")
	jn := stageIndex(j, "join")
	if len(j.Outputs(ex)) != 2 || len(j.Inputs(ex)) != 0 {
		t.Error("extract adjacency wrong")
	}
	if len(j.Inputs(jn)) != 2 || len(j.Outputs(jn)) != 0 {
		t.Error("join adjacency wrong")
	}
}

func TestDepRangeOneToOneEqual(t *testing.T) {
	j, err := NewBuilder("x").Stage("a", 10).Stage("b", 10).Edge("a", "b", OneToOne).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := j.Edges[0]
	for task := 0; task < 10; task++ {
		lo, hi := j.DepRange(e, task)
		if lo != task || hi != task+1 {
			t.Errorf("task %d: range [%d,%d), want identity", task, lo, hi)
		}
	}
}

func TestDepRangeFanIn(t *testing.T) {
	// 100 producers, 10 consumers: each consumer reads 10 producers.
	j, err := NewBuilder("x").Stage("a", 100).Stage("b", 10).Edge("a", "b", OneToOne).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := j.Edges[0]
	covered := make([]bool, 100)
	for task := 0; task < 10; task++ {
		lo, hi := j.DepRange(e, task)
		if hi-lo != 10 {
			t.Errorf("task %d: width %d, want 10", task, hi-lo)
		}
		for i := lo; i < hi; i++ {
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Errorf("producer task %d not covered", i)
		}
	}
}

func TestDepRangeFanOut(t *testing.T) {
	// 3 producers, 10 consumers: every consumer depends on at least one
	// producer and ranges stay in bounds.
	j, err := NewBuilder("x").Stage("a", 3).Stage("b", 10).Edge("a", "b", OneToOne).Build()
	if err != nil {
		t.Fatal(err)
	}
	e := j.Edges[0]
	for task := 0; task < 10; task++ {
		lo, hi := j.DepRange(e, task)
		if lo < 0 || hi > 3 || hi <= lo {
			t.Errorf("task %d: bad range [%d,%d)", task, lo, hi)
		}
	}
}

func TestDepRangeAllToAll(t *testing.T) {
	j := mapReduce(t)
	e := j.Edges[0]
	lo, hi := j.DepRange(e, 3)
	if lo != 0 || hi != 100 {
		t.Errorf("all-to-all range [%d,%d), want [0,100)", lo, hi)
	}
}

func TestCriticalPath(t *testing.T) {
	j := diamond(t)
	cost := func(s int) time.Duration {
		// extract=10, left=20, right=5, join=7
		switch j.Stages[s].Name {
		case "extract":
			return 10 * time.Second
		case "left":
			return 20 * time.Second
		case "right":
			return 5 * time.Second
		default:
			return 7 * time.Second
		}
	}
	if got, want := j.CriticalPath(cost), 37*time.Second; got != want {
		t.Errorf("CriticalPath = %v, want %v", got, want)
	}
	lp := j.LongestPathsFrom(cost)
	if got, want := lp[stageIndex(j, "right")], 12*time.Second; got != want {
		t.Errorf("LongestPathsFrom(right) = %v, want %v", got, want)
	}
	if got, want := lp[stageIndex(j, "join")], 7*time.Second; got != want {
		t.Errorf("LongestPathsFrom(join) = %v, want %v", got, want)
	}
}

func TestDOT(t *testing.T) {
	j := mapReduce(t)
	dot := j.DOT()
	for _, want := range []string{"digraph", "triangle", "circle", `"map" -> "reduce"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestEdgeKindString(t *testing.T) {
	if OneToOne.String() != "one-to-one" || AllToAll.String() != "all-to-all" {
		t.Error("EdgeKind strings wrong")
	}
	if EdgeKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// randomLayeredJob produces a random valid layered DAG for property tests.
func randomLayeredJob(r *rand.Rand) *Job {
	layers := 2 + r.IntN(5)
	b := NewBuilder("rand")
	var names [][]string
	for l := 0; l < layers; l++ {
		width := 1 + r.IntN(4)
		var layer []string
		for w := 0; w < width; w++ {
			name := string(rune('a'+l)) + string(rune('0'+w))
			b.Stage(name, 1+r.IntN(200))
			layer = append(layer, name)
		}
		names = append(names, layer)
	}
	for l := 1; l < layers; l++ {
		for _, to := range names[l] {
			// Each stage gets at least one input from the previous layer.
			from := names[l-1][r.IntN(len(names[l-1]))]
			kind := OneToOne
			if r.IntN(3) == 0 {
				kind = AllToAll
			}
			b.Edge(from, to, kind)
		}
	}
	return b.MustBuild()
}

func TestRandomJobsInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed))
		j := randomLayeredJob(r)
		// Topo order must be a permutation respecting all edges.
		pos := make(map[int]int)
		for i, s := range j.TopoOrder() {
			if _, dup := pos[s]; dup {
				return false
			}
			pos[s] = i
		}
		if len(pos) != j.NumStages() {
			return false
		}
		for _, e := range j.Edges {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		// Every consumer task's dep range must be within producer bounds,
		// and consumerRange must invert the one-to-one ranges.
		for _, e := range j.Edges {
			for task := 0; task < j.Stages[e.To].Tasks; task++ {
				lo, hi := j.DepRange(e, task)
				if lo < 0 || hi > j.Stages[e.From].Tasks || hi <= lo {
					return false
				}
			}
			if e.Kind == OneToOne {
				if err := checkConsumerRange(j, e); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
			}
		}
		// Critical path with unit costs is between 1 and #stages.
		cp := j.CriticalPath(func(int) time.Duration { return time.Second })
		if cp < time.Second || cp > time.Duration(j.NumStages())*time.Second {
			return false
		}
		// The dependency tracker agrees with the definition of readiness.
		if err := checkTracker(j, r); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
