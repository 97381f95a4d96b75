package experiments

import (
	"fmt"
	"slices"
	"time"

	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/stats"
)

// SensitivityCase is one configuration row of Fig. 11 (or one swept value
// of Figs. 12–13): the name its run seeds derive from and its knobs.
type SensitivityCase struct {
	Name  string
	Knobs Knobs
}

// SensitivityCases mirrors the configurations of the paper's Fig. 11.
func SensitivityCases() []SensitivityCase {
	return []SensitivityCase{
		{Name: "baseline", Knobs: Knobs{}},
		{Name: "no hysteresis, no deadzone", Knobs: Knobs{Hysteresis: 1, DeadZone: -1}},
		{Name: "no deadzone", Knobs: Knobs{DeadZone: -1}},
		{Name: "no slack, less hysteresis", Knobs: Knobs{Slack: 1, Hysteresis: 0.4}},
		{Name: "5-min period", Knobs: Knobs{Period: 5 * time.Minute}},
		{Name: "minstage progress", Knobs: Knobs{Indicator: core.MinStage}},
		{Name: "CP progress", Knobs: Knobs{Indicator: core.CP}},
	}
}

// SensitivityRow is one aggregated result row.
type SensitivityRow struct {
	Name        string
	Runs        int
	MetFrac     float64
	LatencyRel  float64 // mean (completion/deadline − 1): negative = early
	AboveOracle float64
	MedianAlloc float64
}

// Fig11 holds the sensitivity analysis.
type Fig11 struct {
	Rows []SensitivityRow
}

// Sensitivity reruns the seven jobs at one deadline under each control-loop
// configuration (§5.5, Fig. 11).
func Sensitivity(env *Env, jobs []string, seedsPerJob int) (*Fig11, error) {
	cases := SensitivityCases()
	outs, err := runCases(env, jobs, seedsPerJob, []string{"fig11"}, cases)
	if err != nil {
		return nil, err
	}
	f := &Fig11{}
	for i, cse := range cases {
		row := SensitivityRow{Name: cse.Name, Runs: len(outs[i])}
		var rels, above, medAllocs []float64
		for _, o := range outs[i] {
			if o.Met {
				row.MetFrac++
			}
			rels = append(rels, o.RelCompletion-1)
			above = append(above, o.AboveOracle)
			medAllocs = append(medAllocs, medianGrantedAlloc(o))
		}
		row.MetFrac /= float64(row.Runs)
		row.LatencyRel = stats.Mean(rels)
		row.AboveOracle = stats.Mean(above)
		row.MedianAlloc = stats.Mean(medAllocs)
		f.Rows = append(f.Rows, row)
	}
	return f, nil
}

// runCases runs every job seedsPerJob times at its short deadline under the
// Jockey policy with each case's knobs, the runs of Figs. 11–13, and
// returns each case's outcomes in (job, seed) order. Run s of a job is
// seeded by the labels, the case's name, the job and s. No jobs means
// DefaultJobs, and no seeds three per job.
func runCases(env *Env, jobs []string, seedsPerJob int, labels []string, cases []SensitivityCase) ([][]Outcome, error) {
	if len(jobs) == 0 {
		jobs = DefaultJobs
	}
	if seedsPerJob <= 0 {
		seedsPerJob = 3
	}
	var tasks []func(x *Exec) (Outcome, error)
	for _, c := range cases {
		for _, job := range jobs {
			for s := 0; s < seedsPerJob; s++ {
				seed := stats.DeriveSeed(env.Seed, append(slices.Clip(labels), c.Name, job, fmt.Sprint(s))...)
				tasks = append(tasks, func(x *Exec) (Outcome, error) {
					short, _, err := env.Deadlines(job)
					if err != nil {
						return Outcome{}, err
					}
					return env.RunExec(x, SLORun{
						Job:      job,
						Deadline: short,
						Policy:   PolicyJockey,
						Seed:     seed,
						Knobs:    c.Knobs,
					})
				})
			}
		}
	}
	results, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	n := len(jobs) * seedsPerJob
	outs := make([][]Outcome, len(cases))
	for i := range outs {
		outs[i] = results[i*n : (i+1)*n]
	}
	return outs, nil
}

// medianGrantedAlloc returns the median granted allocation over a run's
// timeline (0 if no timeline).
func medianGrantedAlloc(o Outcome) float64 {
	if o.Trace == nil || len(o.Trace.Timeline) == 0 {
		return 0
	}
	vals := make([]float64, len(o.Trace.Timeline))
	for i, p := range o.Trace.Timeline {
		vals[i] = float64(p.Granted)
	}
	return stats.Quantile(vals, 0.5)
}

// Render prints the Fig. 11 table.
func (f *Fig11) Render() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.Name,
			pct(r.MetFrac),
			fmt.Sprintf("%+.0f%%", 100*r.LatencyRel),
			pct(r.AboveOracle),
			fmt.Sprintf("%.1f", r.MedianAlloc),
		})
	}
	return renderTable(
		"Figure 11: control-loop sensitivity analysis\n"+
			"(paper: baseline 95% met / −14% latency / 35% above oracle / median alloc 52.9;\n"+
			" no hysteresis+deadzone 57% met; no deadzone 90%; no slack 76%; 5-min 95%;\n"+
			" minstage 100%; CP 95%)",
		[]string{"experiment", "met SLO", "latency vs deadline", "above oracle", "median alloc"},
		rows)
}
