package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/stats"
)

// Table1Config sizes the recurring-job variance experiment (§2.3).
type Table1Config struct {
	// Jobs are the recurring jobs whose completion-time CoV is measured
	// (default the seven Table 2 jobs).
	Jobs []string
	// RunsPerJob is how many recurrences each job gets (default 12; the
	// paper requires at least ten).
	RunsPerJob int
}

func (c *Table1Config) fill() {
	if len(c.Jobs) == 0 {
		c.Jobs = DefaultJobs
	}
	if c.RunsPerJob <= 0 {
		c.RunsPerJob = 12
	}
}

// Table1 holds the coefficient-of-variation statistics of Table 1.
type Table1 struct {
	// PerJobCoV is the completion-time CoV of each recurring job across all
	// its runs (input sizes vary per run, as in production).
	PerJobCoV []float64
	// PerJobCoVSimilarInput is the CoV across runs whose input size differs
	// by at most 10%.
	PerJobCoVSimilarInput []float64
}

// RecurringVariance reruns each recurring job many times on the shared
// cluster — with fluctuating background load, spare capacity, failures and
// varying input sizes — and computes the CoV of completion times, plus the
// CoV restricted to runs with near-identical inputs (Table 1's second row).
// The (job, run) points run on runGrid.
func RecurringVariance(env *Env, cfg Table1Config) (*Table1, error) {
	cfg.fill()
	// Two thirds of the runs use near-identical input (±5%), so the
	// "similar input" cluster has enough members for a stable CoV; the rest
	// vary substantially, as §2.3 observes.
	similarInput := func(run int) bool { return run%3 != 2 }
	var tasks []func(x *Exec) (time.Duration, error)
	for _, job := range cfg.Jobs {
		for run := 0; run < cfg.RunsPerJob; run++ {
			tasks = append(tasks, func(x *Exec) (time.Duration, error) {
				ground, err := env.Ground(job)
				if err != nil {
					return 0, err
				}
				rng := stats.NewRNG(stats.DeriveSeed(env.Seed, "t1", job, fmt.Sprint(run)))
				lo, width := 0.6, 0.9
				if similarInput(run) {
					lo, width = 0.95, 0.1
				}
				scale := lo + width*rng.Float64()
				// Recurrences run on different days: the rest of the cluster
				// is sometimes quiet, sometimes slammed (§2.3-§2.4 — the
				// paper's dominant variance source is fluctuating spare
				// capacity).
				bg := background(stats.DeriveSeed(env.Seed, "t1-bg", job, fmt.Sprint(run)), 0.8+1.4*rng.Float64())
				// A production job's modest fixed guarantee.
				r, err := x.replay(cluster.Config{Seed: stats.DeriveSeed(env.Seed, "t1-cluster", job, fmt.Sprint(run))}, bg,
					cluster.JobConfig{Profile: ground.Scale(scale), Guarantee: 8, Start: 15 * time.Minute, NoTrace: true})
				return r.Completion, err
			})
		}
	}
	completions, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	t1 := &Table1{}
	for j := range cfg.Jobs {
		var all, similar []time.Duration
		for run, completion := range completions[j*cfg.RunsPerJob : (j+1)*cfg.RunsPerJob] {
			all = append(all, completion)
			if similarInput(run) {
				similar = append(similar, completion)
			}
		}
		t1.PerJobCoV = append(t1.PerJobCoV, stats.CoVDurations(all))
		t1.PerJobCoVSimilarInput = append(t1.PerJobCoVSimilarInput, stats.CoVDurations(similar))
	}
	return t1, nil
}

// Render prints Table 1: CoV percentiles across recurring jobs.
func (t *Table1) Render() string {
	row := func(name string, values []float64) []string {
		s := stats.Summarize(values)
		return []string{name,
			fmt.Sprintf("%.2f", s.P10),
			fmt.Sprintf("%.2f", s.P50),
			fmt.Sprintf("%.2f", s.P90),
			fmt.Sprintf("%.2f", s.P99),
		}
	}
	return renderTable(
		"Table 1: coefficient of variation of completion time across recurring-job runs\n"+
			"(paper: .15/.28/.59/1.55 across runs; .13/.20/.37/.85 within ±10% input)",
		[]string{"statistic", "p10", "p50", "p90", "p99"},
		[][]string{
			row("CoV across recurring jobs", t.PerJobCoV),
			row("CoV, inputs within 10%", t.PerJobCoVSimilarInput),
		})
}
