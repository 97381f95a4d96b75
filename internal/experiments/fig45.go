package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// DefaultJobs are the seven detailed evaluation jobs.
var DefaultJobs = []string{"A", "B", "C", "D", "E", "F", "G"}

// ComparisonConfig sizes the Figure 4/5 experiment.
type ComparisonConfig struct {
	// Jobs to run (default the seven Table 2 jobs).
	Jobs []string
	// SeedsPerCase is the number of repetitions per (job, deadline)
	// combination (default 3, giving 7×2×3 = 42 runs per policy; the paper
	// ran >80).
	SeedsPerCase int
	// Policies to compare (default all four).
	Policies []PolicyKind
}

func (c *ComparisonConfig) fill() {
	if len(c.Jobs) == 0 {
		c.Jobs = DefaultJobs
	}
	if c.SeedsPerCase <= 0 {
		c.SeedsPerCase = 3
	}
	if len(c.Policies) == 0 {
		c.Policies = AllPolicies
	}
}

// Comparison holds the outcomes of the policy-comparison experiment behind
// Figures 4 and 5.
type Comparison struct {
	Outcomes map[PolicyKind][]Outcome
}

// PolicyComparison runs every policy over every (job, short/long deadline,
// seed) combination — the experiment behind Fig. 4 (missed deadlines vs
// cluster impact) and Fig. 5 (completion-time CDFs). Grid points run on
// Env.GridParallel workers; per-run seeds derive from the same labels the
// serial implementation used, and the order-preserving merge keeps the
// per-policy outcome sequences (and thus the rendered tables) bit-identical
// at any parallelism.
func PolicyComparison(env *Env, cfg ComparisonConfig) (*Comparison, error) {
	cfg.fill()
	var tasks []func(x *Exec) (Outcome, error)
	for _, job := range cfg.Jobs {
		for di := 0; di < 2; di++ {
			for s := 0; s < cfg.SeedsPerCase; s++ {
				for _, pol := range cfg.Policies {
					job, di, s, pol := job, di, s, pol
					tasks = append(tasks, func(x *Exec) (Outcome, error) {
						short, long, err := env.Deadlines(job)
						if err != nil {
							return Outcome{}, err
						}
						deadline := []time.Duration{short, long}[di]
						return env.RunExec(x, SLORun{
							Job:      job,
							Deadline: deadline,
							Policy:   pol,
							Seed:     stats.DeriveSeed(env.Seed, "fig45", job, fmt.Sprint(deadline), fmt.Sprint(s)),
						})
					})
				}
			}
		}
	}
	results, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	out := &Comparison{Outcomes: map[PolicyKind][]Outcome{}}
	for _, o := range results {
		out.Outcomes[o.Policy] = append(out.Outcomes[o.Policy], o)
	}
	return out, nil
}

// PolicySummary is one point of Fig. 4.
type PolicySummary struct {
	Policy      PolicyKind
	Runs        int
	Missed      int
	MissedFrac  float64
	AboveOracle float64 // mean fraction of allocation above the oracle
	MedianRel   float64 // median completion/deadline
}

// Summaries computes the Fig. 4 points.
func (c *Comparison) Summaries() []PolicySummary {
	var out []PolicySummary
	for _, pol := range AllPolicies {
		runs := c.Outcomes[pol]
		if len(runs) == 0 {
			continue
		}
		s := PolicySummary{Policy: pol, Runs: len(runs)}
		var above, rels []float64
		for _, o := range runs {
			if !o.Met {
				s.Missed++
			}
			above = append(above, o.AboveOracle)
			rels = append(rels, o.RelCompletion)
		}
		s.MissedFrac = float64(s.Missed) / float64(len(runs))
		s.AboveOracle = stats.Mean(above)
		s.MedianRel = stats.Quantile(rels, 0.5)
		out = append(out, s)
	}
	return out
}

// RenderFig4 prints the Fig. 4 table: fraction of allocation above oracle
// (x-axis) vs fraction of missed deadlines (y-axis) per policy.
func (c *Comparison) RenderFig4() string {
	rows := make([][]string, 0, 4)
	for _, s := range c.Summaries() {
		rows = append(rows, []string{
			string(s.Policy),
			fmt.Sprint(s.Runs),
			pct(s.AboveOracle),
			pct(s.MissedFrac),
			fmt.Sprintf("%.2f", s.MedianRel),
		})
	}
	return renderTable(
		"Figure 4: missed deadlines vs allocation above oracle, per policy",
		[]string{"policy", "runs", "above-oracle", "missed", "median rel. completion"},
		rows)
}

// CDF returns the completion-time-relative-to-deadline CDF of one policy at
// the given quantiles.
func (c *Comparison) CDF(pol PolicyKind, quantiles []float64) []float64 {
	rels := make([]float64, 0, len(c.Outcomes[pol]))
	for _, o := range c.Outcomes[pol] {
		rels = append(rels, o.RelCompletion)
	}
	sort.Float64s(rels)
	out := make([]float64, len(quantiles))
	for i, q := range quantiles {
		out[i] = stats.QuantileSorted(rels, q)
	}
	return out
}

// RenderFig5 prints the Fig. 5 CDFs (completion time relative to the
// deadline) including the zoomed upper-right corner of the figure.
func (c *Comparison) RenderFig5() string {
	quantiles := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0}
	headers := []string{"CDF"}
	for _, pol := range AllPolicies {
		if len(c.Outcomes[pol]) > 0 {
			headers = append(headers, string(pol))
		}
	}
	var rows [][]string
	for qi, q := range quantiles {
		row := []string{pct(q)}
		for _, pol := range AllPolicies {
			if len(c.Outcomes[pol]) == 0 {
				continue
			}
			row = append(row, pct(c.CDF(pol, quantiles)[qi]))
		}
		rows = append(rows, row)
	}
	return renderTable(
		"Figure 5: CDF of job completion time relative to deadline (100% = deadline)",
		headers, rows)
}
