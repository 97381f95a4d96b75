package scope

import (
	"strings"
	"testing"
)

// FuzzCompile checks that arbitrary input never panics the compiler and
// that accepted scripts produce plans whose topological order covers every
// stage.
func FuzzCompile(f *testing.F) {
	f.Add(`JOB "x"; EXTRACT a FROM "f"; OUTPUT a TO "o";`)
	f.Add(clickstream)
	f.Add(`JOB "x"; EXTRACT a FROM "f" TASKS 3 SIZE 1.5; REDUCE b FROM a ON k; OUTPUT b TO "o";`)
	f.Add("JOB \"x\";\n-- comment\nEXTRACT a FROM \"f\";\nJOIN j FROM a, a;\n")
	f.Add(`job "lower"; extract a from "f"; output a to "o";`)
	f.Add("\"unterminated")
	f.Add("JOB x; 1.2.3 ,,;;")
	f.Fuzz(func(t *testing.T, src string) {
		job, err := Compile(src)
		if err != nil {
			if !strings.Contains(err.Error(), "scope:") {
				t.Errorf("error missing package prefix: %v", err)
			}
			return
		}
		if got := len(job.TopoOrder()); got != job.NumStages() {
			t.Errorf("accepted script produced a plan whose topological order has %d of %d stages", got, job.NumStages())
		}
	})
}
