package scope

import (
	"strings"
	"testing"

	"github.com/jockeysim/jockey/internal/dag"
)

const clickstream = `
JOB "clickstream";

-- raw inputs
EXTRACT clicks FROM "clicks.tsv" TASKS 100 SIZE 40.5;
EXTRACT ads FROM "ads.tsv" TASKS 20 SIZE 4;

PROCESS sessions FROM clicks;
REDUCE perUser FROM sessions ON userId TASKS 25;
JOIN joined FROM perUser, ads TASKS 10;
AGGREGATE totals FROM joined;
OUTPUT totals TO "out.tsv";
`

// stageIndex returns the index of the named stage, or -1.
func stageIndex(job *dag.Job, name string) int {
	for i, s := range job.Stages {
		if s.Name == name {
			return i
		}
	}
	return -1
}

func TestCompileClickstream(t *testing.T) {
	job, err := Compile(clickstream)
	if err != nil {
		t.Fatal(err)
	}
	if job.Name != "clickstream" {
		t.Errorf("name = %q", job.Name)
	}
	if job.NumStages() != 6 {
		t.Fatalf("stages = %d, want 6", job.NumStages())
	}
	// PROCESS inherits its input's task count.
	if got := job.Stages[stageIndex(job, "sessions")].Tasks; got != 100 {
		t.Errorf("sessions tasks = %d, want 100", got)
	}
	// AGGREGATE defaults to 1 task.
	if got := job.Stages[stageIndex(job, "totals")].Tasks; got != 1 {
		t.Errorf("totals tasks = %d, want 1", got)
	}
	// Edges: sessions is one-to-one, perUser is a barrier.
	if job.IsBarrier(stageIndex(job, "sessions")) {
		t.Error("PROCESS must not be a barrier")
	}
	for _, name := range []string{"perUser", "joined", "totals"} {
		if !job.IsBarrier(stageIndex(job, name)) {
			t.Errorf("%s must be a barrier", name)
		}
	}
	// JOIN has two inputs.
	if got := len(job.Inputs(stageIndex(job, "joined"))); got != 2 {
		t.Errorf("joined inputs = %d", got)
	}
	// SIZE carried through.
	if got := job.Stages[stageIndex(job, "clicks")].InputGB; got != 40.5 {
		t.Errorf("clicks size = %v", got)
	}
}

func TestCompileDefaults(t *testing.T) {
	job, err := Compile(`
JOB "d";
EXTRACT a FROM "a";
PROCESS b FROM a;
REDUCE c FROM b;
OUTPUT c TO "o";
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Stages[stageIndex(job, "a")].Tasks; got != DefaultExtractTasks {
		t.Errorf("extract default tasks = %d", got)
	}
	if got := job.Stages[stageIndex(job, "c")].Tasks; got != DefaultExtractTasks/DefaultReduceFactor {
		t.Errorf("reduce default tasks = %d", got)
	}
}

func TestCompileJoinDefaultTasks(t *testing.T) {
	job, err := Compile(`
JOB "j";
EXTRACT a FROM "a" TASKS 100;
EXTRACT b FROM "b" TASKS 10;
JOIN j FROM a, b;
OUTPUT j TO "o";
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Stages[stageIndex(job, "j")].Tasks; got != 10 {
		t.Errorf("join default tasks = %d, want min input (10)", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no job", `EXTRACT a FROM "f"; OUTPUT a TO "o";`, "must start with JOB"},
		{"job not first", `EXTRACT a FROM "f"; JOB "x"; OUTPUT a TO "o";`, "must be the first statement"},
		{"double job", `JOB "x"; JOB "y"; EXTRACT a FROM "f"; OUTPUT a TO "o";`, "duplicate JOB"},
		{"empty", `JOB "x";`, "no operators"},
		{"no output", `JOB "x"; EXTRACT a FROM "f";`, "no OUTPUT"},
		{"undefined input", `JOB "x"; PROCESS b FROM a; OUTPUT b TO "o";`, "undefined dataset"},
		{"undefined output", `JOB "x"; EXTRACT a FROM "f"; OUTPUT b TO "o";`, "undefined dataset"},
		{"redefined", `JOB "x"; EXTRACT a FROM "f"; EXTRACT a FROM "g"; OUTPUT a TO "o";`, "defined twice"},
		{"dead stage", `JOB "x"; EXTRACT a FROM "f"; EXTRACT b FROM "g"; OUTPUT a TO "o";`, "dead stage"},
		{"join one input", `JOB "x"; EXTRACT a FROM "f"; JOIN j FROM a; OUTPUT j TO "o";`, "at least two"},
		{"bad tasks", `JOB "x"; EXTRACT a FROM "f" TASKS 0; OUTPUT a TO "o";`, "positive integer"},
		{"frac tasks", `JOB "x"; EXTRACT a FROM "f" TASKS 2.5; OUTPUT a TO "o";`, "positive integer"},
		{"size on process", `JOB "x"; EXTRACT a FROM "f"; PROCESS b FROM a SIZE 3; OUTPUT b TO "o";`, "only valid on EXTRACT"},
		{"missing semi", `JOB "x"
EXTRACT a FROM "f"; OUTPUT a TO "o";`, "';'"},
		{"unterminated string", `JOB "x;`, "unterminated"},
		{"bad char", `JOB "x"; @`, "unexpected character"},
		{"stmt starts with ident", `JOB "x"; foo bar;`, "statement keyword"},
		{"keyword misuse", `JOB "x"; FROM a;`, "unexpected keyword"},
		{"bad number", `JOB "x"; EXTRACT a FROM "f" TASKS 1.2.3; OUTPUT a TO "o";`, "bad number"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Compile("JOB \"x\";\nEXTRACT a FROM \"f\";\nPROCESS b FROM zzz;\nOUTPUT b TO \"o\";")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 3 {
		t.Errorf("line = %d, want 3", se.Line)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("message %q should mention the line", err.Error())
	}
}

func TestCompiledPlanIsValidDAG(t *testing.T) {
	job, err := Compile(clickstream)
	if err != nil {
		t.Fatal(err)
	}
	// Should be runnable end to end: topological order covers all stages.
	if len(job.TopoOrder()) != job.NumStages() {
		t.Error("topo order incomplete")
	}
	// Roots, the stages with no inputs, are exactly the EXTRACT stages.
	var roots []int
	for s := range job.Stages {
		if len(job.Inputs(s)) == 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) != 2 {
		t.Errorf("roots = %v", roots)
	}
	for _, r := range roots {
		name := job.Stages[r].Name
		if name != "clicks" && name != "ads" {
			t.Errorf("unexpected root %q", name)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	job, err := Compile("JOB \"c\"; -- trailing comment\n-- full line\nEXTRACT a FROM \"f\";\n\n\nOUTPUT a TO \"o\";")
	if err != nil {
		t.Fatal(err)
	}
	if job.NumStages() != 1 {
		t.Errorf("stages = %d", job.NumStages())
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	job, err := Compile(`job "k"; extract a from "f" tasks 3; output a to "o";`)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Stages[0].Tasks; got != 3 {
		t.Errorf("tasks = %d", got)
	}
}

func TestMapReduceShape(t *testing.T) {
	// The canonical "black circle connected to a blue triangle" of Fig. 3.
	job, err := Compile(`
JOB "wordcount";
EXTRACT words FROM "docs" TASKS 50;
REDUCE counts FROM words ON word TASKS 10;
OUTPUT counts TO "counts.tsv";
`)
	if err != nil {
		t.Fatal(err)
	}
	if job.NumStages() != 2 || job.NumBarrierStages() != 1 {
		t.Errorf("shape wrong: %v", job)
	}
	if job.Edges[0].Kind != dag.AllToAll {
		t.Error("reduce edge must be all-to-all")
	}
}
