package profile

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

const (
	// minStageSamples is the number of successful live observations a
	// stage needs before Blend pools them with its prior. Stages below it
	// keep their prior statistics, scaled by any job-wide drift, so early
	// in a run only the stages actually observed get refreshed.
	minStageSamples = 3
	// priorWeight scales the prior's effective sample count: a stage's
	// prior counts as a quarter of one training run of it. Blend runs when
	// the guard has already shown the prior wrong, so live data dominates.
	priorWeight = 0.25
)

// Blend merges live task observations into a prior profile, count-weighted:
// each stage's prior execution and init distributions are discretized into
// as many representative samples as the prior run had tasks (scaled by
// priorWeight), pooled with the live trace's observed samples, and refit as
// an empirical distribution — so a stage observed 300 times outweighs the
// 25 pseudo-samples of a 100-task prior 12:1.
// Failure probabilities blend by attempt counts the same way. Per-stage
// aggregates (T_s, Q_s, l_s) are recomputed from the blended distributions.
//
// The live trace may be partial (a running job): stages with fewer than
// minStageSamples successful observations keep their prior statistics,
// except that a job-wide runtime drift is extrapolated to them. Their prior
// execution distributions are scaled by the count-weighted mean live/prior
// runtime ratio of the observed stages; without that, a job-wide slowdown
// would stay invisible until every stage had run, because the remaining
// time lies mostly in stages still ahead of the job.
// Blend is the data path of online re-profiling (see control.Guard).
func Blend(prior *Profile, live *trace.JobTrace) (*Profile, error) {
	if prior == nil || live == nil {
		return nil, fmt.Errorf("profile: Blend needs a prior profile and a live trace")
	}
	n := prior.Job.NumStages()
	// Per stage: attempts, failed attempts, and the count and summed
	// execution time of the successful ones, the live samples Blend pools.
	type tally struct {
		attempts, failures, ok int
		exec                   time.Duration
	}
	tallies := make([]tally, n)
	for _, e := range live.Events {
		if e.Stage < 0 || e.Stage >= n {
			return nil, fmt.Errorf("profile: live trace of %q references stage %d, job %q has %d stages",
				live.JobName, e.Stage, prior.Job.Name, n)
		}
		t := &tallies[e.Stage]
		t.attempts++
		if e.Failed {
			t.failures++
		} else {
			t.ok++
			t.exec += e.ExecTime()
		}
	}
	// Job-wide drift ratio: count-weighted mean of live/prior mean runtime
	// across observed stages, used to extrapolate to unobserved ones.
	var ratioNum, ratioDen float64
	for s, t := range tallies {
		if t.ok < minStageSamples {
			continue
		}
		priorMean := prior.Stages[s].Exec.Mean()
		if priorMean <= 0 {
			continue
		}
		liveMean := float64(t.exec) / float64(t.ok)
		w := float64(t.ok)
		ratioNum += w * liveMean / float64(priorMean)
		ratioDen += w
	}
	drift := 1.0
	if ratioDen > 0 {
		drift = ratioNum / ratioDen
	}
	stages := make([]StageProfile, n)
	for s := range stages {
		sp := prior.Stages[s]
		t := tallies[s]
		if t.ok < minStageSamples {
			if drift > 0 && drift != 1 {
				stages[s] = StageProfile{
					Exec:        stats.Scaled{Base: sp.Exec, Factor: drift},
					Queue:       sp.Queue,
					FailureProb: sp.FailureProb,
				}
			} else {
				stages[s] = sp
			}
			continue
		}
		priorN := int(float64(prior.Job.Stages[s].Tasks)*priorWeight + 0.5)
		if priorN < 1 {
			priorN = 1
		}
		// Each pool is priorN representative prior samples followed by the
		// stage's live ones, gathered straight into the distribution's own
		// slice.
		exec := discretize(make([]time.Duration, priorN, priorN+t.ok), sp.Exec)
		inits := discretize(make([]time.Duration, priorN, priorN+t.ok), sp.Queue)
		for _, e := range live.Events {
			if e.Stage == s && !e.Failed {
				exec = append(exec, e.ExecTime())
				inits = append(inits, e.InitTime())
			}
		}
		// Failure probability: pool prior pseudo-attempts with live attempts.
		pa, la := float64(priorN), float64(t.attempts)
		failureProb := (sp.FailureProb*pa + float64(t.failures)) / (pa + la)
		if failureProb >= 1 {
			failureProb = 0.999
		}
		// Leave aggregates zero: New refills T_s, Q_s, l_s from the blended
		// distributions.
		stages[s] = StageProfile{
			Exec:        stats.EmpiricalOf(exec),
			Queue:       stats.EmpiricalOf(inits),
			FailureProb: failureProb,
		}
	}
	out, err := New(prior.Job, stages)
	if err != nil {
		return nil, fmt.Errorf("profile: blend: %w", err)
	}
	out.TrainingCompletion = prior.TrainingCompletion
	return out, nil
}

// discretize summarizes a distribution as n = len(dst) representative
// samples at the mid-quantiles (i+0.5)/n, preserving its shape with a known
// sample count so empirical pooling weights prior against live data
// correctly. It fills dst and returns it.
func discretize(dst []time.Duration, d stats.Distribution) []time.Duration {
	n := len(dst)
	for i := range dst {
		dst[i] = d.Quantile((float64(i) + 0.5) / float64(n))
	}
	return dst
}
