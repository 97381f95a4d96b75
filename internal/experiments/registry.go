package experiments

import (
	"fmt"
	"slices"
	"strings"

	"github.com/jockeysim/jockey/internal/flight"
)

// Options are the command-line choices that shape an artifact.
type Options struct {
	// Quick selects the smoke-test run counts: one seed per case instead
	// of three, six Table 1 runs per job instead of twelve, and one Figure 8
	// run per point instead of three.
	Quick bool
	// Flight is the decision flight-recorder level of the robustness grid.
	Flight flight.Level
}

// pick returns quick under o.Quick and full otherwise.
func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// FileKind says where cmd/experiments puts an output file.
type FileKind int

const (
	// TableFile is a rendered table: printed on stdout and written to -out.
	TableFile FileKind = iota
	// DataFile is a companion file (a DOT graph, a CSV timeline or a
	// per-run flight record), written to -out only.
	DataFile
)

// File is one output file of an artifact.
type File struct {
	Name string
	Kind FileKind
	Text string
}

// Artifact is one table or figure of the reproduction.
type Artifact struct {
	// Names are the -run names that select the artifact.
	Names []string
	// Title is the progress line printed when the artifact starts.
	Title string
	// Run computes the artifact and returns its files in output order.
	Run func(env *Env, o Options) ([]File, error)
}

// Artifacts is the reproduction in run order: cmd/experiments runs it and
// the quick-artifacts golden pins it.
var Artifacts = []Artifact{
	{[]string{"table1"}, "Table 1: recurring-job completion-time variance", func(env *Env, o Options) ([]File, error) {
		return table("table1")(RecurringVariance(env, Table1Config{RunsPerJob: o.pick(6, 12)}))
	}},
	{[]string{"fig1"}, "Figure 1: inter-job dependencies", func(env *Env, o Options) ([]File, error) {
		return table("fig1")(Dependencies(env, 5000))
	}},
	{[]string{"table2"}, "Table 2: evaluation job statistics", func(env *Env, o Options) ([]File, error) {
		return table("table2")(JobStatistics(env))
	}},
	{[]string{"fig3"}, "Figure 3: stage graphs", func(env *Env, o Options) ([]File, error) {
		f3, err := StageGraphs(env)
		files, err := table("fig3")(f3, err)
		if err != nil {
			return nil, err
		}
		for _, job := range DefaultJobs {
			files = append(files, File{"fig3-job" + job + ".dot", DataFile, f3.DOT[job]})
		}
		return files, nil
	}},
	// Figures 4 and 5 render one set of runs.
	{[]string{"fig4", "fig5"}, "Figures 4 & 5: policy comparison (the slow one)", func(env *Env, o Options) ([]File, error) {
		cmp, err := PolicyComparison(env, ComparisonConfig{SeedsPerCase: o.pick(1, 3)})
		if err != nil {
			return nil, err
		}
		return []File{{"fig4.txt", TableFile, cmp.RenderFig4()}, {"fig5.txt", TableFile, cmp.RenderFig5()}}, nil
	}},
	{[]string{"fig6"}, "Figure 6: adaptation time-lapses", func(env *Env, o Options) ([]File, error) {
		f6, err := Timelapses(env)
		files, err := table("fig6")(f6, err)
		if err != nil {
			return nil, err
		}
		for i, c := range f6.Cases {
			var b strings.Builder
			if err := c.Outcome.Trace.WriteTimelineCSV(&b); err != nil {
				return nil, err
			}
			files = append(files, File{fmt.Sprintf("fig6-%c-job%s.csv", 'a'+i, c.Job), DataFile, b.String()})
		}
		return files, nil
	}},
	{[]string{"table3"}, "Table 3: training vs heavier actual runs", func(env *Env, o Options) ([]File, error) {
		return table("table3")(TrainingVsActual(env))
	}},
	{[]string{"fig7"}, "Figure 7: deadline changes", func(env *Env, o Options) ([]File, error) {
		return table("fig7")(DeadlineChanges(env, nil))
	}},
	{[]string{"fig8"}, "Figure 8: prediction accuracy", func(env *Env, o Options) ([]File, error) {
		return table("fig8")(PredictionAccuracy(env, nil, o.pick(1, 3)))
	}},
	{[]string{"fig9"}, "Figure 9: indicator traces", func(env *Env, o Options) ([]File, error) {
		return table("fig9")(IndicatorTraces(env))
	}},
	{[]string{"fig10"}, "Figure 10: indicator comparison", func(env *Env, o Options) ([]File, error) {
		return table("fig10")(IndicatorComparison(env, nil))
	}},
	{[]string{"fig11"}, "Figure 11: sensitivity analysis", func(env *Env, o Options) ([]File, error) {
		return table("fig11")(Sensitivity(env, nil, o.pick(1, 3)))
	}},
	{[]string{"fig12"}, "Figure 12: slack sweep", func(env *Env, o Options) ([]File, error) {
		return table("fig12")(SlackSweep(env, nil, o.pick(1, 3)))
	}},
	{[]string{"ext1"}, "Extension E1: online simulation vs precomputed table", func(env *Env, o Options) ([]File, error) {
		return table("ext1")(OnlineVsTable(env, nil, o.pick(1, 3)))
	}},
	{[]string{"ext2"}, "Extension E2: admission control", func(env *Env, o Options) ([]File, error) {
		return table("ext2")(AdmissionControl(env, 8))
	}},
	{[]string{"robustness"}, "Robustness: guard rails under injected faults", func(env *Env, o Options) ([]File, error) {
		rb, err := RobustnessFlight(env, RobustnessConfig{Job: "B", SeedsPerCell: o.pick(1, 3), Flight: o.Flight})
		files, err := table("robustness")(rb, err)
		if err != nil {
			return nil, err
		}
		for _, fr := range rb.Records {
			var b strings.Builder
			if err := fr.Record.WriteJSON(&b); err != nil {
				return nil, err
			}
			name := fmt.Sprintf("flight-robust-%s-%s-%d.json", fr.Scenario, fr.Policy, fr.Seed)
			files = append(files, File{name, DataFile, b.String()})
		}
		return files, nil
	}},
	{[]string{"fleet"}, "Fleet: multi-job arbitration robustness grid", func(env *Env, o Options) ([]File, error) {
		return table("fleet")(FleetRobustness(env))
	}},
	{[]string{"fig13"}, "Figure 13: hysteresis sweep", func(env *Env, o Options) ([]File, error) {
		return table("fig13")(HysteresisSweep(env, nil, o.pick(1, 3)))
	}},
}

// table returns a function that renders an experiment's result as the one
// table file name.txt, or passes on the experiment's error.
func table(name string) func(r interface{ Render() string }, err error) ([]File, error) {
	return func(r interface{ Render() string }, err error) ([]File, error) {
		if err != nil {
			return nil, err
		}
		return []File{{name + ".txt", TableFile, r.Render()}}, nil
	}
}

// RunNames lists every -run name in run order.
func RunNames() []string {
	var names []string
	for _, a := range Artifacts {
		names = append(names, a.Names...)
	}
	return names
}

// Select returns the artifacts a comma-separated -run list names, in run
// order. Names are case-insensitive and may repeat; an empty list selects
// every artifact, and an unknown name is an error that lists the valid
// ones.
func Select(list string) ([]Artifact, error) {
	if list == "" {
		return Artifacts, nil
	}
	want := make([]bool, len(Artifacts))
	for _, name := range strings.Split(list, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		i := slices.IndexFunc(Artifacts, func(a Artifact) bool { return slices.Contains(a.Names, name) })
		if i < 0 {
			return nil, fmt.Errorf("-run: unknown name %q; valid names are %s", name, strings.Join(RunNames(), ","))
		}
		want[i] = true
	}
	var out []Artifact
	for i, a := range Artifacts {
		if want[i] {
			out = append(out, a)
		}
	}
	return out, nil
}
