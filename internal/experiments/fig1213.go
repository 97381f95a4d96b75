package experiments

import (
	"fmt"

	"github.com/jockeysim/jockey/internal/stats"
)

// SweepRow aggregates runs at one parameter value (Figures 12 and 13).
type SweepRow struct {
	Value       float64
	Runs        int
	MetFrac     float64
	LatencyRel  float64 // mean completion/deadline
	AboveOracle float64
	FirstAlloc  float64 // mean first granted allocation
	LastAlloc   float64 // mean last granted allocation
	MedianAlloc float64
	MaxAlloc    float64
	AllocHours  float64 // mean token-hours granted per run
}

// Sweep holds a parameter sweep.
type Sweep struct {
	Param string
	Rows  []SweepRow
}

// sweepValues runs the seven jobs at one deadline for every value of the
// swept parameter.
func sweep(env *Env, jobs []string, seedsPerJob int, param string,
	values []float64, knobsFor func(v float64) Knobs) (*Sweep, error) {
	if len(jobs) == 0 {
		jobs = DefaultJobs
	}
	if seedsPerJob <= 0 {
		seedsPerJob = 3
	}
	var tasks []func(x *Exec) (Outcome, error)
	for _, v := range values {
		for _, job := range jobs {
			for s := 0; s < seedsPerJob; s++ {
				v, job, s := v, job, s
				tasks = append(tasks, func(x *Exec) (Outcome, error) {
					short, _, err := env.Deadlines(job)
					if err != nil {
						return Outcome{}, err
					}
					return env.RunExec(x, SLORun{
						Job:      job,
						Deadline: short,
						Policy:   PolicyJockey,
						Seed:     stats.DeriveSeed(env.Seed, "sweep", param, fmt.Sprint(v), job, fmt.Sprint(s)),
						Knobs:    knobsFor(v),
					})
				})
			}
		}
	}
	results, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Param: param}
	i := 0
	for _, v := range values {
		row := SweepRow{Value: v}
		var rels, above, firsts, lasts, medians, maxes, hours []float64
		for range jobs {
			for s := 0; s < seedsPerJob; s++ {
				o := results[i]
				i++
				row.Runs++
				if o.Met {
					row.MetFrac++
				}
				rels = append(rels, o.RelCompletion)
				above = append(above, o.AboveOracle)
				if tl := o.Trace.Timeline; len(tl) > 0 {
					firsts = append(firsts, float64(tl[0].Granted))
					lasts = append(lasts, float64(tl[len(tl)-1].Granted))
					medians = append(medians, medianGrantedAlloc(o))
					maxA := 0
					for _, p := range tl {
						if p.Granted > maxA {
							maxA = p.Granted
						}
					}
					maxes = append(maxes, float64(maxA))
				}
				hours = append(hours, o.AllocTokenSeconds/3600)
			}
		}
		row.MetFrac /= float64(row.Runs)
		row.LatencyRel = stats.Mean(rels)
		row.AboveOracle = stats.Mean(above)
		row.FirstAlloc = stats.Mean(firsts)
		row.LastAlloc = stats.Mean(lasts)
		row.MedianAlloc = stats.Mean(medians)
		row.MaxAlloc = stats.Mean(maxes)
		row.AllocHours = stats.Mean(hours)
		sw.Rows = append(sw.Rows, row)
	}
	return sw, nil
}

// SlackSweep reproduces Fig. 12: slack values 1.0–1.6.
func SlackSweep(env *Env, jobs []string, seedsPerJob int) (*Sweep, error) {
	return sweep(env, jobs, seedsPerJob, "slack",
		[]float64{1.0, 1.1, 1.2, 1.4, 1.6},
		func(v float64) Knobs { return Knobs{Slack: v} })
}

// HysteresisSweep reproduces Fig. 13: hysteresis α 0.05–1.0.
func HysteresisSweep(env *Env, jobs []string, seedsPerJob int) (*Sweep, error) {
	return sweep(env, jobs, seedsPerJob, "hysteresis",
		[]float64{0.05, 0.2, 0.4, 0.6, 0.8, 1.0},
		func(v float64) Knobs { return Knobs{Hysteresis: v} })
}

// Render prints the sweep in the two-panel layout of Figs. 12/13: SLO and
// impact metrics, then allocation statistics.
func (s *Sweep) Render() string {
	var rows [][]string
	for _, r := range s.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", r.Value),
			pct(r.MetFrac),
			pct(r.LatencyRel),
			pct(r.AboveOracle),
			fmt.Sprintf("%.1f", r.FirstAlloc),
			fmt.Sprintf("%.1f", r.MedianAlloc),
			fmt.Sprintf("%.1f", r.MaxAlloc),
			fmt.Sprintf("%.1f", r.LastAlloc),
			fmt.Sprintf("%.1f", r.AllocHours),
		})
	}
	var note string
	switch s.Param {
	case "slack":
		note = "(paper Fig. 12: only slack=1.0 misses SLOs; more slack ⇒ earlier finishes,\n" +
			" larger first/median allocations, more cluster impact)"
	case "hysteresis":
		note = "(paper Fig. 13: misses only at the extremes α=0.05 and α=1.0; higher α ⇒\n" +
			" finishes closer to deadline, higher max allocation)"
	}
	return renderTable(
		fmt.Sprintf("Figure %s sweep: %s\n%s",
			map[string]string{"slack": "12", "hysteresis": "13"}[s.Param], s.Param, note),
		[]string{s.Param, "met SLO", "latency/deadline", "above oracle",
			"first", "median", "max", "last", "token-hours"},
		rows)
}
