package workload

import (
	"fmt"
	"sort"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// PipelineConfig parameterizes the synthetic inter-job dependency graph
// behind Fig. 1 (§2.5): jobs submitted over an observation window, each
// reading the outputs of earlier jobs.
type PipelineConfig struct {
	// Jobs in the window (default 5000, "all jobs over three days").
	Jobs int
	// Seed drives the generator.
	Seed uint64
}

// The fixed shape of the dependency graph.
const (
	// pipelineWindow is the observation window: three days.
	pipelineWindow = 72 * time.Hour
	// pipelineGroups is the number of business groups.
	pipelineGroups = 12
	// dependentFraction of jobs read at least one earlier job's output (the
	// paper observes 10.2%).
	dependentFraction = 0.102
	// meanGap is the median-targeted gap between a job and its dependents;
	// gaps are lognormal around it.
	meanGap = 10 * time.Minute
)

func (c *PipelineConfig) fill() error {
	if c.Jobs == 0 {
		c.Jobs = 5000
	}
	if c.Jobs < 2 {
		return fmt.Errorf("workload: pipeline graph needs at least 2 jobs")
	}
	return nil
}

// PipelineStats holds the four distributions plotted in Fig. 1, computed
// over the synthetic dependency graph. All slices are sorted ascending.
type PipelineStats struct {
	// Gaps between a job's completion and each directly dependent job's
	// start.
	Gaps []time.Duration
	// ChainLengths of dependent-job chains (longest downstream path from
	// each root of the dependency graph).
	ChainLengths []int
	// Dependents counts, per job with at least one dependent, the jobs that
	// directly or indirectly use its output.
	Dependents []int
	// Groups counts, per job with at least one dependent, the distinct
	// business groups depending on it.
	Groups []int
}

// GeneratePipelines builds the dependency graph and returns its Fig. 1
// statistics. Dependency targets use preferential attachment, reproducing
// the paper's heavy-tailed dependent counts (median job feeds >10 others;
// the top decile feeds >100).
func GeneratePipelines(cfg PipelineConfig) (*PipelineStats, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "pipelines"))
	n := cfg.Jobs
	start := make([]time.Duration, n) // submission times, ascending
	group := make([]int, n)           // business group of each job
	popularity := make([]float64, n)  // preferential-attachment weight
	parents := make([][]int, n)       // direct inputs of each job
	children := make([][]int, n)      // direct dependents
	gapDist := stats.LognormalFromMedian(meanGap, 6*meanGap)

	for i := 0; i < n; i++ {
		start[i] = time.Duration(rng.Float64() * float64(pipelineWindow))
		group[i] = rng.IntN(pipelineGroups)
		popularity[i] = 1
		// A few percent of jobs produce core shared datasets (web index,
		// clickstream) that many pipelines read.
		if rng.Float64() < 0.03 {
			popularity[i] = 60
		}
	}
	sort.Slice(start, func(i, j int) bool { return start[i] < start[j] })

	var gaps []time.Duration
	var recentDependents []int // tail of the pipeline chains being extended
	for i := 1; i < n; i++ {
		if rng.Float64() >= dependentFraction {
			continue
		}
		// This job depends on 1-3 earlier jobs. Most dependencies extend an
		// existing pipeline (a recent job that itself has inputs), which
		// produces the long chains of Fig. 1; the rest attach
		// preferentially to popular producers (the shared datasets).
		nDeps := 1 + rng.IntN(3)
		for d := 0; d < nDeps; d++ {
			p := -1
			if len(recentDependents) > 0 && rng.Float64() < 0.65 {
				lookback := len(recentDependents)
				if lookback > 40 {
					lookback = 40
				}
				p = recentDependents[len(recentDependents)-1-rng.IntN(lookback)]
			} else {
				p = pickParent(rng, popularity, i)
			}
			if p < 0 || p >= i || containsInt(parents[i], p) {
				continue
			}
			parents[i] = append(parents[i], p)
			children[p] = append(children[p], i)
			popularity[p] += 6 // rich get richer
			gaps = append(gaps, gapDist.Sample(rng))
		}
		if len(parents[i]) > 0 {
			recentDependents = append(recentDependents, i)
		}
	}

	// Transitive dependents and group counts per producer.
	var dependents, groupCounts []int
	for j := 0; j < n; j++ {
		if len(children[j]) == 0 {
			continue
		}
		seen := map[int]bool{}
		grp := map[int]bool{}
		stack := append([]int(nil), children[j]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			grp[group[v]] = true
			stack = append(stack, children[v]...)
		}
		dependents = append(dependents, len(seen))
		groupCounts = append(groupCounts, len(grp))
	}

	// Chain lengths: longest downstream path from each job that has
	// dependents but no parents (pipeline roots).
	memo := make([]int, n)
	for i := range memo {
		memo[i] = -1
	}
	var depth func(j int) int
	depth = func(j int) int {
		if memo[j] >= 0 {
			return memo[j]
		}
		memo[j] = 0 // break accidental cycles defensively (none by construction)
		best := 0
		for _, ch := range children[j] {
			if d := depth(ch); d > best {
				best = d
			}
		}
		memo[j] = 1 + best
		return memo[j]
	}
	var chains []int
	for j := 0; j < n; j++ {
		if len(children[j]) > 0 && len(parents[j]) == 0 {
			chains = append(chains, depth(j))
		}
	}

	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	sort.Ints(dependents)
	sort.Ints(groupCounts)
	sort.Ints(chains)
	return &PipelineStats{
		Gaps:         gaps,
		ChainLengths: chains,
		Dependents:   dependents,
		Groups:       groupCounts,
	}, nil
}

// pickParent samples an earlier job proportional to popularity.
func pickParent(rng interface{ Float64() float64 }, pop []float64, before int) int {
	if before == 0 {
		return -1
	}
	var total float64
	for i := 0; i < before; i++ {
		total += pop[i]
	}
	r := rng.Float64() * total
	for i := 0; i < before; i++ {
		r -= pop[i]
		if r <= 0 {
			return i
		}
	}
	return before - 1
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
