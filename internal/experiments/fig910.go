package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/stats"
)

// AllIndicators lists the six indicators in the paper's Fig. 10 order.
var AllIndicators = []core.IndicatorName{
	core.TotalWorkWithQ, core.TotalWork, core.VertexFrac,
	core.CP, core.MinStage, core.MinStageInf,
}

// IndicatorTracePoint is one per-minute sample of an indicator during a run.
type IndicatorTracePoint struct {
	T         time.Duration
	Progress  float64       // indicator value in [0, 1]
	Predicted time.Duration // worst-case completion estimate T_t
}

// IndicatorSeries is the trace of one indicator over one run of job G
// (Fig. 9 plots totalworkWithQ and CP).
type IndicatorSeries struct {
	Indicator core.IndicatorName
	Points    []IndicatorTracePoint
	// Metrics of Fig. 10.
	AvgDeltaT           float64 // mean |T_t − T_{t+1}| / job duration
	LongestConstantFrac float64 // longest constant-progress interval / duration
	ActualCompletion    time.Duration
}

// replayIndicators runs one fixed-allocation execution of the job on a
// loaded cluster, reads its per-minute stage fractions back from the run's
// trace, then evaluates every requested indicator on the same state series
// — so all indicators see the identical run, as in §5.4.
func replayIndicators(env *Env, x *Exec, job string, inds []core.IndicatorName, seed uint64) ([]IndicatorSeries, error) {
	ground, err := env.Ground(job)
	if err != nil {
		return nil, err
	}
	jkDefault, err := env.Runtime(job, "")
	if err != nil {
		return nil, err
	}
	alloc := jkDefault.Model().SnapAlloc(maxTokens / 2)

	bg := background(stats.DeriveSeed(env.Seed, "fig910-bg", job, fmt.Sprint(seed)), 1)
	run, err := x.replay(cluster.Config{Seed: stats.DeriveSeed(env.Seed, "fig910", job, fmt.Sprint(seed))}, bg,
		cluster.JobConfig{Profile: ground, Guarantee: alloc, Start: 15 * time.Minute})
	if err != nil {
		return nil, err
	}
	actual := run.Completion
	var states []model.State
	for at := time.Minute; at < actual; at += time.Minute {
		states = append(states, model.State{Elapsed: at, FracDone: progress.FracDoneAt(run.Trace, ground, at)})
	}

	var out []IndicatorSeries
	for _, ind := range inds {
		jk, err := env.Runtime(job, ind)
		if err != nil {
			return nil, err
		}
		s := IndicatorSeries{Indicator: ind, ActualCompletion: actual}
		for _, st := range states {
			p := jk.Indicator().Progress(st.FracDone)
			rem := model.Remaining(jk.Model(), st, alloc, 1.0)
			s.Points = append(s.Points, IndicatorTracePoint{
				T:         st.Elapsed,
				Progress:  p,
				Predicted: st.Elapsed + rem,
			})
		}
		s.computeMetrics(actual)
		out = append(out, s)
	}
	return out, nil
}

func (s *IndicatorSeries) computeMetrics(duration time.Duration) {
	if len(s.Points) < 2 || duration <= 0 {
		return
	}
	var deltaSum float64
	longest, current := time.Duration(0), time.Duration(0)
	for i := 1; i < len(s.Points); i++ {
		d := s.Points[i].Predicted - s.Points[i-1].Predicted
		if d < 0 {
			d = -d
		}
		deltaSum += d.Seconds()
		gap := s.Points[i].T - s.Points[i-1].T
		if s.Points[i].Progress == s.Points[i-1].Progress {
			current += gap
			if current > longest {
				longest = current
			}
		} else {
			current = 0
		}
	}
	s.AvgDeltaT = deltaSum / float64(len(s.Points)-1) / duration.Seconds()
	s.LongestConstantFrac = float64(longest) / float64(duration)
}

// Fig9 holds the two indicator traces of Figure 9 (job G).
type Fig9 struct {
	Series []IndicatorSeries // totalworkWithQ and CP
}

// IndicatorTraces reproduces Fig. 9: the totalworkWithQ and CP indicators
// over the same run of job G, with their worst-case completion estimates.
func IndicatorTraces(env *Env) (*Fig9, error) {
	series, err := replayIndicators(env, NewExec(), "G",
		[]core.IndicatorName{core.TotalWorkWithQ, core.CP}, 1)
	if err != nil {
		return nil, err
	}
	return &Fig9{Series: series}, nil
}

// Render prints both traces side by side.
func (f *Fig9) Render() string {
	if len(f.Series) != 2 {
		return "figure 9: missing series"
	}
	a, b := f.Series[0], f.Series[1]
	var rows [][]string
	n := len(a.Points)
	if len(b.Points) < n {
		n = len(b.Points)
	}
	for i := 0; i < n; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", a.Points[i].T.Minutes()),
			fmt.Sprintf("%.0f%%", 100*a.Points[i].Progress),
			fmt.Sprintf("%.1f", a.Points[i].Predicted.Minutes()),
			fmt.Sprintf("%.0f%%", 100*b.Points[i].Progress),
			fmt.Sprintf("%.1f", b.Points[i].Predicted.Minutes()),
		})
	}
	title := fmt.Sprintf(
		"Figure 9: %s vs %s indicator traces, job G (actual completion %.1f min)\n"+
			"(paper: the CP indicator gets stuck mid-run, inflating its estimate)",
		a.Indicator, b.Indicator, a.ActualCompletion.Minutes())
	return renderTable(title,
		[]string{"t [min]", string(a.Indicator) + " progress", "T_t [min]", string(b.Indicator) + " progress", "T_t [min]"},
		rows)
}

// Fig10 holds the indicator comparison of Figure 10 (a table in the paper).
type Fig10 struct {
	// Rows aggregate each indicator's metrics across jobs.
	Rows []IndicatorComparisonRow
}

// IndicatorComparisonRow is one line of Fig. 10.
type IndicatorComparisonRow struct {
	Indicator           core.IndicatorName
	AvgDeltaT           float64
	LongestConstantFrac float64
}

// IndicatorComparison evaluates all six indicators over runs of the given
// jobs and aggregates the two Fig. 10 metrics.
func IndicatorComparison(env *Env, jobs []string) (*Fig10, error) {
	if len(jobs) == 0 {
		jobs = DefaultJobs
	}
	var tasks []func(x *Exec) ([]IndicatorSeries, error)
	for _, job := range jobs {
		job := job
		tasks = append(tasks, func(x *Exec) ([]IndicatorSeries, error) {
			return replayIndicators(env, x, job, AllIndicators, 2)
		})
	}
	results, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	deltas := map[core.IndicatorName][]float64{}
	consts := map[core.IndicatorName][]float64{}
	for _, series := range results {
		for _, s := range series {
			deltas[s.Indicator] = append(deltas[s.Indicator], s.AvgDeltaT)
			consts[s.Indicator] = append(consts[s.Indicator], s.LongestConstantFrac)
		}
	}
	f := &Fig10{}
	for _, ind := range AllIndicators {
		f.Rows = append(f.Rows, IndicatorComparisonRow{
			Indicator:           ind,
			AvgDeltaT:           stats.Mean(deltas[ind]),
			LongestConstantFrac: stats.Mean(consts[ind]),
		})
	}
	return f, nil
}

// Render prints the Fig. 10 table.
func (f *Fig10) Render() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			string(r.Indicator), pct(r.AvgDeltaT), pct(r.LongestConstantFrac),
		})
	}
	return renderTable(
		"Figure 10: progress-indicator comparison\n"+
			"(paper: totalworkWithQ best — ΔT 2.0%, longest constant 8.5%;\n"+
			" minstage-inf worst — 3.9% / 26.7%)",
		[]string{"indicator", "avg ΔT", "longest constant interval"},
		rows)
}
