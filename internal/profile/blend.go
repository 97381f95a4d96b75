package profile

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// BlendOptions tunes Blend. The zero value gives the defaults.
type BlendOptions struct {
	// PriorWeight scales the prior's effective sample count: 1 (the default)
	// makes the prior count as one full training run of the stage, 0.5 lets
	// live data dominate twice as fast, 2 makes the prior twice as sticky.
	PriorWeight float64
	// ScaleUnobserved extrapolates a job-wide runtime drift to stages with
	// too few live observations: their prior execution distributions are
	// scaled by the count-weighted mean live/prior runtime ratio of the
	// observed stages. Without it a job-wide slowdown stays invisible to the
	// blend until every stage has run — remaining time is dominated by future
	// stages, which would keep the stale prior verbatim.
	ScaleUnobserved bool
}

// minStageSamples is the number of successful live observations a stage
// needs before Blend touches its prior statistics at all. Stages below it
// keep the prior verbatim, so early in a run only the stages actually
// observed get refreshed.
const minStageSamples = 3

func (o *BlendOptions) fill() {
	if o.PriorWeight <= 0 {
		o.PriorWeight = 1
	}
}

// Blend merges live task observations into a prior profile, count-weighted:
// each stage's prior execution and init distributions are discretized into
// as many representative samples as the prior run had tasks (scaled by
// PriorWeight), pooled with the live trace's observed samples, and refit as
// an empirical distribution — so a stage observed 300 times outweighs a
// prior of 100 tasks 3:1, while a stage observed twice barely moves.
// Failure probabilities blend by attempt counts the same way. Per-stage
// aggregates (T_s, Q_s, l_s) are recomputed from the blended distributions.
//
// The live trace may be partial (a running job): stages with fewer than
// minStageSamples successful observations keep their prior statistics.
// Blend is the data path of online re-profiling (see control.Guard).
func Blend(prior *Profile, live *trace.JobTrace, opts BlendOptions) (*Profile, error) {
	if prior == nil || live == nil {
		return nil, fmt.Errorf("profile: Blend needs a prior profile and a live trace")
	}
	opts.fill()
	n := prior.Job.NumStages()
	attempts := make([]int, n)
	failures := make([]int, n)
	for _, e := range live.Events {
		if e.Stage < 0 || e.Stage >= n {
			return nil, fmt.Errorf("profile: live trace of %q references stage %d, job %q has %d stages",
				live.JobName, e.Stage, prior.Job.Name, n)
		}
		attempts[e.Stage]++
		if e.Failed {
			failures[e.Stage]++
		}
	}
	// Job-wide drift ratio: count-weighted mean of live/prior mean runtime
	// across observed stages, used to extrapolate to unobserved ones.
	var ratioNum, ratioDen float64
	execs := make([][]time.Duration, n)
	for s := 0; s < n; s++ {
		exec := live.ExecSamples(s)
		execs[s] = exec
		if len(exec) < minStageSamples {
			continue
		}
		priorMean := prior.Stages[s].Exec.Mean()
		if priorMean <= 0 {
			continue
		}
		var sum time.Duration
		for _, d := range exec {
			sum += d
		}
		liveMean := float64(sum) / float64(len(exec))
		w := float64(len(exec))
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
		exec := execs[s]
		if len(exec) < minStageSamples {
			if opts.ScaleUnobserved && drift > 0 && drift != 1 {
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
		priorN := int(float64(prior.Job.Stages[s].Tasks)*opts.PriorWeight + 0.5)
		if priorN < 1 {
			priorN = 1
		}
		blended := StageProfile{
			Exec:  stats.NewEmpirical(append(discretize(sp.Exec, priorN), exec...)),
			Queue: sp.Queue,
		}
		if inits := live.InitSamples(s); len(inits) >= minStageSamples {
			blended.Queue = stats.NewEmpirical(append(discretize(sp.Queue, priorN), inits...))
		}
		// Failure probability: pool prior pseudo-attempts with live attempts.
		pa, la := float64(priorN), float64(attempts[s])
		blended.FailureProb = (sp.FailureProb*pa + float64(failures[s])) / (pa + la)
		if blended.FailureProb >= 1 {
			blended.FailureProb = 0.999
		}
		// Leave aggregates zero: New refills T_s, Q_s, l_s from the blended
		// distributions.
		stages[s] = StageProfile{
			Exec:        blended.Exec,
			Queue:       blended.Queue,
			FailureProb: blended.FailureProb,
		}
	}
	out, err := New(prior.Job, stages)
	if err != nil {
		return nil, fmt.Errorf("profile: blend: %w", err)
	}
	out.TrainingCompletion = prior.TrainingCompletion
	return out, nil
}

// discretize summarizes a distribution as n representative samples at the
// mid-quantiles (i+0.5)/n, preserving its shape with a known sample count so
// empirical pooling weights prior against live data correctly.
func discretize(d stats.Distribution, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d.Quantile((float64(i) + 0.5) / float64(n))
	}
	return out
}
