package dag

import (
	"fmt"
	"math"
	"strings"
)

// DOT renders the job's stage graph in Graphviz format, mirroring Figure 3
// of the paper: barrier (full-shuffle) stages are drawn as triangles, other
// stages as circles, and node size is proportional to the square root of the
// stage's task count.
func (j *Job) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", j.Name)
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [fixedsize=true, fontsize=8];\n")
	for i, s := range j.Stages {
		shape := "circle"
		color := "black"
		if j.IsBarrier(i) {
			shape = "triangle"
			color = "blue"
		}
		size := 0.25 + 0.1*math.Sqrt(float64(s.Tasks))
		fmt.Fprintf(&b, "  %q [shape=%s, color=%s, width=%.2f, height=%.2f, label=%q];\n",
			s.Name, shape, color, size, size, fmt.Sprintf("%s\\n%d", s.Name, s.Tasks))
	}
	for _, e := range j.Edges {
		style := "solid"
		if e.Kind == AllToAll {
			style = "bold"
		}
		fmt.Fprintf(&b, "  %q -> %q [style=%s];\n", j.Stages[e.From].Name, j.Stages[e.To].Name, style)
	}
	b.WriteString("}\n")
	return b.String()
}
