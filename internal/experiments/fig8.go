package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/stats"
)

// Fig8Point is one allocation's average prediction error.
type Fig8Point struct {
	Alloc        int
	SimErr       float64 // simulator-based predictor
	AmdahlErr    float64 // Amdahl's-Law predictor
	JobsMeasured int
}

// Fig8 holds the prediction-accuracy curves of Figure 8.
type Fig8 struct {
	Points []Fig8Point
	// AvgSim and AvgAmdahl are overall average errors (paper: 9.8% and
	// 11.8%).
	AvgSim, AvgAmdahl float64
}

// PredictionAccuracy reproduces §5.3: both predictors are initialized from
// a single training run, then each job is executed RunsPerPoint times at
// each allocation of the grid; the worst-case prediction is compared to the
// slowest actual run. The (allocation, job, run) executions run on runGrid.
func PredictionAccuracy(env *Env, jobs []string, runsPerPoint int) (*Fig8, error) {
	if len(jobs) == 0 {
		jobs = DefaultJobs
	}
	if runsPerPoint <= 0 {
		runsPerPoint = 3
	}
	allocs := []int{20, 30, 40, 50, 60, 70, 80, 90}
	var tasks []func(x *Exec) (time.Duration, error)
	for _, alloc := range allocs {
		for _, job := range jobs {
			for r := 0; r < runsPerPoint; r++ {
				// An actual execution at a controlled allocation on an idle
				// slice (the paper's dedicated experiments).
				tasks = append(tasks, func(x *Exec) (time.Duration, error) {
					ground, err := env.Ground(job)
					if err != nil {
						return 0, err
					}
					seed := stats.DeriveSeed(env.Seed, "fig8", job, fmt.Sprint(alloc), fmt.Sprint(r))
					r, err := x.replay(cluster.Config{Seed: seed}, nil,
						cluster.JobConfig{Profile: ground, Guarantee: alloc, NoSpare: true, NoTrace: true})
					return r.Completion, err
				})
			}
		}
	}
	completions, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	f := &Fig8{}
	var simAll, amdahlAll []float64
	for _, alloc := range allocs {
		var simErrs, amdahlErrs []float64
		for _, job := range jobs {
			jk, err := env.Runtime(job, "")
			if err != nil {
				return nil, err
			}
			train, err := env.Training(job)
			if err != nil {
				return nil, err
			}
			// The slowest of the point's actual executions.
			slowest := slices.Max(completions[:runsPerPoint])
			completions = completions[runsPerPoint:]
			simPred := jk.PredictLatency(jk.Model().SnapAlloc(alloc), 1.0)
			amdahlPred := model.NewAmdahl(train).Estimate(make([]float64, train.Job.NumStages()), alloc)
			simErrs = append(simErrs, relErr(simPred, slowest))
			amdahlErrs = append(amdahlErrs, relErr(amdahlPred, slowest))
		}
		p := Fig8Point{
			Alloc:        alloc,
			SimErr:       stats.Mean(simErrs),
			AmdahlErr:    stats.Mean(amdahlErrs),
			JobsMeasured: len(simErrs),
		}
		f.Points = append(f.Points, p)
		simAll = append(simAll, simErrs...)
		amdahlAll = append(amdahlAll, amdahlErrs...)
	}
	f.AvgSim = stats.Mean(simAll)
	f.AvgAmdahl = stats.Mean(amdahlAll)
	return f, nil
}

func relErr(pred, actual time.Duration) float64 {
	if actual <= 0 {
		return 0
	}
	return math.Abs(float64(pred)-float64(actual)) / float64(actual)
}

// Render prints the Fig. 8 error curves.
func (f *Fig8) Render() string {
	var rows [][]string
	for _, p := range f.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.Alloc), pct(p.SimErr), pct(p.AmdahlErr),
		})
	}
	title := fmt.Sprintf(
		"Figure 8: average latency-prediction error vs allocation\n"+
			"(paper: simulator 9.8%% avg, Amdahl 11.8%% avg, Amdahl worst at low allocations)\n"+
			"overall: simulator %s, Amdahl %s", pct(f.AvgSim), pct(f.AvgAmdahl))
	return renderTable(title, []string{"allocation", "simulator err", "amdahl err"}, rows)
}
