package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/stats"
)

// SensitivityCase is one configuration row of Fig. 11.
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
	if len(jobs) == 0 {
		jobs = DefaultJobs
	}
	if seedsPerJob <= 0 {
		seedsPerJob = 3
	}
	cases := SensitivityCases()
	var tasks []func(x *Exec) (Outcome, error)
	for _, cse := range cases {
		for _, job := range jobs {
			for s := 0; s < seedsPerJob; s++ {
				cse, job, s := cse, job, s
				tasks = append(tasks, func(x *Exec) (Outcome, error) {
					short, _, err := env.Deadlines(job)
					if err != nil {
						return Outcome{}, err
					}
					return env.RunExec(x, SLORun{
						Job:      job,
						Deadline: short,
						Policy:   PolicyJockey,
						Seed:     stats.DeriveSeed(env.Seed, "fig11", cse.Name, job, fmt.Sprint(s)),
						Knobs:    cse.Knobs,
					})
				})
			}
		}
	}
	results, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	f := &Fig11{}
	i := 0
	for _, cse := range cases {
		row := SensitivityRow{Name: cse.Name}
		var rels, above, medAllocs []float64
		for range jobs {
			for s := 0; s < seedsPerJob; s++ {
				o := results[i]
				i++
				row.Runs++
				if o.Met {
					row.MetFrac++
				}
				rels = append(rels, o.RelCompletion-1)
				above = append(above, o.AboveOracle)
				medAllocs = append(medAllocs, medianGrantedAlloc(o))
			}
		}
		row.MetFrac /= float64(row.Runs)
		row.LatencyRel = stats.Mean(rels)
		row.AboveOracle = stats.Mean(above)
		row.MedianAlloc = stats.Mean(medAllocs)
		f.Rows = append(f.Rows, row)
	}
	return f, nil
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
