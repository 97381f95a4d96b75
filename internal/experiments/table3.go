package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// Table3Column summarizes one execution of job F.
type Table3Column struct {
	Name        string
	TotalWork   time.Duration
	QueueMedian time.Duration
	QueueP90    time.Duration
	ExecMedian  time.Duration
	ExecP90     time.Duration
	Completion  time.Duration
	Deadline    time.Duration
	Met         bool
}

// Table3 compares the training run of job F with two Jockey-controlled runs
// that required substantially more work (§5.2's Table 3: job 1 needed almost
// twice the work and finished slightly late; job 2 was finished on time).
type Table3 struct {
	Columns []Table3Column
}

func summarizeRun(name string, tr *trace.JobTrace, deadline time.Duration, met bool) Table3Column {
	return Table3Column{
		Name:        name,
		TotalWork:   tr.TotalWork(),
		QueueMedian: stats.QuantileDurations(tr.AllQueueSamples(), 0.5),
		QueueP90:    stats.QuantileDurations(tr.AllQueueSamples(), 0.9),
		ExecMedian:  stats.QuantileDurations(tr.AllExecSamples(), 0.5),
		ExecP90:     stats.QuantileDurations(tr.AllExecSamples(), 0.9),
		Completion:  tr.Completion,
		Deadline:    deadline,
		Met:         met,
	}
}

// TrainingVsActual reproduces Table 3 with job F: the training run, a run
// needing ~1.9× the work (job 1, expected to finish barely late) and one
// needing ~1.5× (job 2, expected on time thanks to adaptation).
func TrainingVsActual(env *Env) (*Table3, error) {
	train, err := env.TrainingTrace("F")
	if err != nil {
		return nil, err
	}
	short, _, err := env.Deadlines("F")
	if err != nil {
		return nil, err
	}
	scales := []float64{1.9, 1.5}
	var tasks []func(x *Exec) (Outcome, error)
	for i, scale := range scales {
		tasks = append(tasks, func(x *Exec) (Outcome, error) {
			return env.RunExec(x, SLORun{
				Job:        "F",
				Deadline:   short,
				Policy:     PolicyJockey,
				Seed:       uint64(200 + i),
				InputScale: scale,
				TaskEvents: true,
			})
		})
	}
	outcomes, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	t3 := &Table3{Columns: []Table3Column{summarizeRun("training", train, 0, true)}}
	for i, o := range outcomes {
		t3.Columns = append(t3.Columns,
			summarizeRun(fmt.Sprintf("job %d (×%.1f work)", i+1, scales[i]), o.Trace, o.Deadline, o.Met))
	}
	return t3, nil
}

// Render prints the Table 3 comparison.
func (t *Table3) Render() string {
	headers := []string{"statistic"}
	for _, c := range t.Columns {
		headers = append(headers, c.Name)
	}
	row := func(name string, f func(c Table3Column) string) []string {
		out := []string{name}
		for _, c := range t.Columns {
			out = append(out, f(c))
		}
		return out
	}
	rows := [][]string{
		row("total work [hours]", func(c Table3Column) string {
			return fmt.Sprintf("%.1f", c.TotalWork.Hours())
		}),
		row("queueing median [s]", func(c Table3Column) string { return secs(c.QueueMedian) }),
		row("queueing p90 [s]", func(c Table3Column) string { return secs(c.QueueP90) }),
		row("latency median [s]", func(c Table3Column) string { return secs(c.ExecMedian) }),
		row("latency p90 [s]", func(c Table3Column) string { return secs(c.ExecP90) }),
		row("completion [min]", func(c Table3Column) string {
			return fmt.Sprintf("%.1f", c.Completion.Minutes())
		}),
		row("deadline met", func(c Table3Column) string {
			if c.Deadline == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%v (%.0f%% of %v)", c.Met,
				100*float64(c.Completion)/float64(c.Deadline), c.Deadline)
		}),
	}
	return renderTable(
		"Table 3: training run of job F vs two heavier Jockey-controlled runs",
		headers, rows)
}
