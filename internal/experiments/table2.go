package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/workload"
)

// Table2Row compares one job's published statistics with the measured
// statistics of our synthesized equivalent (from its training run).
type Table2Row struct {
	Job string

	PaperMedian, MeasuredMedian         time.Duration
	PaperP90, MeasuredP90               time.Duration
	PaperP90Fastest, MeasuredP90Fastest time.Duration
	PaperP90Slowest, MeasuredP90Slowest time.Duration
	PaperDataGB, MeasuredDataGB         float64
	PaperStages, MeasuredStages         int
	PaperBarriers, MeasuredBarriers     int
	PaperVertices, MeasuredVertices     int
}

// Table2 holds all seven rows.
type Table2 struct {
	Rows []Table2Row
}

// JobStatistics measures each synthesized job A–G on its training run and
// lines the numbers up against Table 2 of the paper.
func JobStatistics(env *Env) (*Table2, error) {
	t2 := &Table2{}
	for _, spec := range workload.TableTwo {
		tr, err := env.TrainingTrace(spec.Name)
		if err != nil {
			return nil, err
		}
		ground, err := env.Ground(spec.Name)
		if err != nil {
			return nil, err
		}
		all := tr.AllExecSamples()
		row := Table2Row{
			Job:             spec.Name,
			PaperMedian:     spec.MedianRuntime,
			PaperP90:        spec.P90Runtime,
			PaperP90Fastest: spec.P90Fastest,
			PaperP90Slowest: spec.P90Slowest,
			PaperDataGB:     spec.DataGB,
			PaperStages:     spec.Stages,
			PaperBarriers:   spec.Barriers,
			PaperVertices:   spec.Vertices,

			MeasuredMedian:   stats.QuantileDurations(all, 0.5),
			MeasuredP90:      stats.QuantileDurations(all, 0.9),
			MeasuredDataGB:   ground.Job.TotalInputGB(),
			MeasuredStages:   ground.Job.NumStages(),
			MeasuredBarriers: ground.Job.NumBarrierStages(),
			MeasuredVertices: ground.Job.TotalTasks(),
		}
		fastest := time.Duration(1<<62 - 1)
		var slowest time.Duration
		for s := 0; s < ground.Job.NumStages(); s++ {
			ex := tr.ExecSamples(s)
			if len(ex) == 0 {
				continue
			}
			p90 := stats.QuantileDurations(ex, 0.9)
			if p90 < fastest {
				fastest = p90
			}
			if p90 > slowest {
				slowest = p90
			}
		}
		row.MeasuredP90Fastest = fastest
		row.MeasuredP90Slowest = slowest
		t2.Rows = append(t2.Rows, row)
	}
	return t2, nil
}

// Render prints the paper-vs-measured comparison.
func (t *Table2) Render() string {
	var rows [][]string
	add := func(stat string, f func(r Table2Row) (string, string)) {
		paperRow := []string{stat + " (paper)"}
		measRow := []string{stat + " (ours)"}
		for _, r := range t.Rows {
			p, m := f(r)
			paperRow = append(paperRow, p)
			measRow = append(measRow, m)
		}
		rows = append(rows, paperRow, measRow)
	}
	add("vertex runtime median [s]", func(r Table2Row) (string, string) {
		return secs(r.PaperMedian), secs(r.MeasuredMedian)
	})
	add("vertex runtime p90 [s]", func(r Table2Row) (string, string) {
		return secs(r.PaperP90), secs(r.MeasuredP90)
	})
	add("p90, fastest stage [s]", func(r Table2Row) (string, string) {
		return secs(r.PaperP90Fastest), secs(r.MeasuredP90Fastest)
	})
	add("p90, slowest stage [s]", func(r Table2Row) (string, string) {
		return secs(r.PaperP90Slowest), secs(r.MeasuredP90Slowest)
	})
	add("total data read [GB]", func(r Table2Row) (string, string) {
		return fmt.Sprintf("%.1f", r.PaperDataGB), fmt.Sprintf("%.1f", r.MeasuredDataGB)
	})
	add("number of stages", func(r Table2Row) (string, string) {
		return fmt.Sprint(r.PaperStages), fmt.Sprint(r.MeasuredStages)
	})
	add("number of barrier stages", func(r Table2Row) (string, string) {
		return fmt.Sprint(r.PaperBarriers), fmt.Sprint(r.MeasuredBarriers)
	})
	add("number of vertices", func(r Table2Row) (string, string) {
		return fmt.Sprint(r.PaperVertices), fmt.Sprint(r.MeasuredVertices)
	})
	headers := []string{"stat"}
	for _, r := range t.Rows {
		headers = append(headers, r.Job)
	}
	return renderTable("Table 2: statistics of the seven evaluation jobs, paper vs synthesized",
		headers, rows)
}
