package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/jockeysim/jockey/internal/flight"
)

// TestRobustnessFlightGolden pins the CI smoke's robustness grid (job B, one
// seed per cell, counterfactual flight recording, master seed 1 — what
// `experiments -quick -run robustness -flight-level counterfactual` runs)
// against a committed golden: the rendered table plus one SHA-256 per flight
// record, in the format `sha256sum` prints for the CLI's
// flight-robust-<scenario>-<policy>-<seed>.json files. Its ticks cover every
// decision mechanism (model, hysteresis, dead zone, urgency boost, guard
// panic), so unlike the parallelism goldens, which compare runs of one
// build, it shows that a refactor of the control or flight layers left
// their output unchanged across commits. A deliberate behaviour change
// replaces the golden with the output this test prints on a mismatch.
func TestRobustnessFlightGolden(t *testing.T) {
	const path = "testdata/robustness_quick.golden"
	rb, err := RobustnessFlight(NewEnv(1), RobustnessConfig{
		Job:          "B",
		SeedsPerCell: 1,
		Flight:       flight.LevelCounterfactual,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString(strings.TrimRight(rb.Render(), "\n"))
	got.WriteString("\n\n")
	for _, fr := range rb.Records {
		var b bytes.Buffer
		if err := fr.Record.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  flight-robust-%s-%s-%d.json\n", sha256.Sum256(b.Bytes()), fr.Scenario, fr.Policy, fr.Seed)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("robustness grid differs from %s; this build renders:\n%s", path, got.String())
	}
}

// TestQuickArtifactsGolden pins every artifact `experiments -quick -out DIR`
// writes (one seed per case, six Table 1 runs, one Figure 8 run) against a
// committed golden of one SHA-256 per file, in the CLI's order and under
// the CLI's file names, run on the tests' shared Env. E1's decision costs
// are wall-clock measurements, so they are zeroed before rendering, as the
// benchmark's paper workload zeroes them. A mismatch prints the new digest
// list and the full text of every artifact whose digest changed; a
// deliberate behaviour change replaces the golden with that list.
func TestQuickArtifactsGolden(t *testing.T) {
	t.Parallel()
	const path = "testdata/quick_artifacts.golden"
	env := sharedEnv
	var names, outs []string
	add := func(name, out string) {
		names = append(names, name)
		outs = append(outs, out)
	}
	render := func(name string) func(r interface{ Render() string }, err error) {
		return func(r interface{ Render() string }, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			add(name+".txt", r.Render())
		}
	}
	render("table1")(RecurringVariance(env, Table1Config{RunsPerJob: 6}))
	render("fig1")(Dependencies(env, 5000))
	render("table2")(JobStatistics(env))
	f3, err := StageGraphs(env)
	render("fig3")(f3, err)
	for _, job := range DefaultJobs {
		add("fig3-job"+job+".dot", f3.DOT[job])
	}
	cmp, err := PolicyComparison(env, ComparisonConfig{SeedsPerCase: 1})
	if err != nil {
		t.Fatalf("fig4: %v", err)
	}
	add("fig4.txt", cmp.RenderFig4())
	add("fig5.txt", cmp.RenderFig5())
	f6, err := Timelapses(env)
	render("fig6")(f6, err)
	for i, c := range f6.Cases {
		var b strings.Builder
		if err := c.Outcome.Trace.WriteTimelineCSV(&b); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fig6-%c-job%s.csv", 'a'+i, c.Job), b.String())
	}
	render("table3")(TrainingVsActual(env))
	render("fig7")(DeadlineChanges(env, nil))
	render("fig8")(PredictionAccuracy(env, nil, 1))
	render("fig9")(IndicatorTraces(env))
	render("fig10")(IndicatorComparison(env, nil))
	render("fig11")(Sensitivity(env, nil, 1))
	render("fig12")(SlackSweep(env, nil, 1))
	e1, err := OnlineVsTable(env, nil, 1)
	if err == nil {
		for i := range e1.Rows {
			e1.Rows[i].TableDecisionUs, e1.Rows[i].OnlineDecision = 0, 0
		}
	}
	render("ext1")(e1, err)
	render("ext2")(AdmissionControl(env, 8))
	render("robustness")(RobustnessFlight(env, RobustnessConfig{Job: "B", SeedsPerCell: 1}))
	render("fleet")(FleetRobustness(env))
	render("fig13")(HysteresisSweep(env, nil, 1))

	var got bytes.Buffer
	for i, out := range outs {
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(out)), names[i])
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	t.Errorf("quick artifacts differ from %s; this build renders:\n%s", path, got.String())
	for i, line := range strings.SplitAfter(got.String(), "\n") {
		if i < len(outs) && !strings.Contains(string(want), line) {
			t.Logf("%s:\n%s", names[i], outs[i])
		}
	}
}
