package experiments

import (
	"fmt"

	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/workload"
)

// Fig1 holds the inter-job dependency distributions of Figure 1.
type Fig1 struct {
	Stats *workload.PipelineStats
}

// Dependencies generates the synthetic 3-day job-dependency graph and
// computes the four Fig. 1 distributions.
func Dependencies(env *Env, jobs int) (*Fig1, error) {
	ps, err := workload.GeneratePipelines(workload.PipelineConfig{
		Jobs: jobs,
		Seed: stats.DeriveSeed(env.Seed, "fig1"),
	})
	if err != nil {
		return nil, err
	}
	return &Fig1{Stats: ps}, nil
}

// Render prints the four CDFs of Fig. 1 at a fixed quantile grid.
func (f *Fig1) Render() string {
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
	gapAt := func(q float64) string {
		return fmt.Sprintf("%.1f", stats.QuantileDurations(f.Stats.Gaps, q).Minutes())
	}
	intAt := func(vals []int, q float64) string {
		fs := make([]float64, len(vals))
		for i, v := range vals {
			fs[i] = float64(v)
		}
		return fmt.Sprintf("%.0f", stats.QuantileSorted(fs, q))
	}
	var rows [][]string
	for _, q := range quantiles {
		rows = append(rows, []string{
			pct(q),
			gapAt(q),
			intAt(f.Stats.ChainLengths, q),
			intAt(f.Stats.Dependents, q),
			intAt(f.Stats.Groups, q),
		})
	}
	title := "Figure 1: dependence between jobs (synthetic 3-day window)\n" +
		fmt.Sprintf("(paper: median gap ~10 min; median job feeds >10 others; top decile >100; chains span groups)\n"+
			"samples: %d gaps, %d chains, %d producers",
			len(f.Stats.Gaps), len(f.Stats.ChainLengths), len(f.Stats.Dependents))
	return renderTable(title,
		[]string{"CDF", "gap [min]", "chain length", "# dependent jobs", "# groups"},
		rows)
}
