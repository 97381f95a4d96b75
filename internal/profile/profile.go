// Package profile captures the per-stage statistics Jockey extracts from a
// prior execution of a recurring job (§4.1): task service-time and queueing
// distributions, failure probabilities, and the per-stage aggregates used by
// the Amdahl's-Law model and the progress indicators (T_s, Q_s, l_s).
//
// Profiles come from two places:
//
//   - FromTrace distills a recorded execution (package trace) — this is the
//     paper's "single profile run" path and the one the Jockey runtime uses.
//   - New builds a profile directly from known distributions — used by the
//     workload generator, which plays the role of ground truth.
package profile

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// StageProfile holds the statistics of one stage.
type StageProfile struct {
	// Exec is the distribution of task service times.
	Exec stats.Distribution
	// Queue is the distribution of per-task scheduling/initialization
	// latency (time between becoming schedulable with an available token and
	// actually running).
	Queue stats.Distribution
	// FailureProb is the per-attempt probability that a task fails and must
	// be re-executed.
	FailureProb float64

	// TotalWork is T_s: aggregate execution time of the stage's tasks in the
	// training run.
	TotalWork time.Duration
	// TotalQueue is Q_s: aggregate queueing time of the stage's tasks.
	TotalQueue time.Duration
	// LongestTask is l_s: the longest observed task execution time.
	LongestTask time.Duration
}

// MaxAttempts bounds the attempts of one task in both simulators, sim and
// cluster: an attempt numbered MaxAttempts-1 never fails, so a pathological
// failure probability cannot hang a run.
const MaxAttempts = 30

// MaxExec is the longest service time SampleAttempt returns, about 146
// years: a drifted time saturates there instead of overflowing into a
// short or negative one, and a simulation clock plus MaxExec cannot wrap.
const MaxExec = time.Duration(1 << 62)

// SampleAttempt draws one task attempt from the stage's distributions, in
// this order: the queue delay, the service time (multiplied by drift), and,
// if mayFail and the stage can fail, the failure draw. A failing attempt
// dies a uniform fraction of the way through its service time, drawn last,
// and exec is that partial time. A drifted service time saturates at
// MaxExec, and one that comes out zero or negative is 1 ms instead.
//
//jockey:hotpath
func (sp *StageProfile) SampleAttempt(rng *rand.Rand, drift float64, mayFail bool) (queue, exec time.Duration, fails bool) {
	queue = sp.Queue.Sample(rng)
	exec = sp.Exec.Sample(rng)
	if drift != 1 {
		if d := float64(exec) * drift; d < float64(MaxExec) {
			exec = time.Duration(d)
		} else {
			exec = MaxExec
		}
	}
	if exec <= 0 {
		exec = time.Millisecond
	}
	if mayFail && sp.FailureProb > 0 && rng.Float64() < sp.FailureProb {
		fails = true
		if exec = time.Duration(float64(exec) * rng.Float64()); exec <= 0 {
			exec = time.Millisecond
		}
	}
	return queue, exec, fails
}

// Profile is a complete job profile: the plan plus per-stage statistics.
type Profile struct {
	Job    *dag.Job
	Stages []StageProfile // parallel to Job.Stages

	// TrainingCompletion is the end-to-end latency of the training run, if
	// the profile came from one (zero otherwise).
	TrainingCompletion time.Duration
}

// New builds a profile from explicit per-stage statistics. The stages slice
// must be parallel to job.Stages. Aggregates (TotalWork, TotalQueue,
// LongestTask) that are zero are filled from the distributions: T_s and Q_s
// from task count × mean, l_s from the 99.5th percentile of the service
// distribution.
func New(job *dag.Job, stages []StageProfile) (*Profile, error) {
	if job == nil {
		return nil, fmt.Errorf("profile: nil job")
	}
	if len(stages) != job.NumStages() {
		return nil, fmt.Errorf("profile: job %q has %d stages, got %d stage profiles",
			job.Name, job.NumStages(), len(stages))
	}
	out := make([]StageProfile, len(stages))
	for i, sp := range stages {
		if sp.Exec == nil {
			return nil, fmt.Errorf("profile: stage %q has no execution distribution", job.Stages[i].Name)
		}
		if sp.Queue == nil {
			sp.Queue = stats.Point{V: 0}
		}
		if sp.FailureProb < 0 || sp.FailureProb >= 1 {
			return nil, fmt.Errorf("profile: stage %q failure probability %v out of [0,1)",
				job.Stages[i].Name, sp.FailureProb)
		}
		n := time.Duration(job.Stages[i].Tasks)
		if sp.TotalWork == 0 {
			sp.TotalWork = n * sp.Exec.Mean()
		}
		if sp.TotalQueue == 0 {
			sp.TotalQueue = n * sp.Queue.Mean()
		}
		if sp.LongestTask == 0 {
			sp.LongestTask = sp.Exec.Quantile(0.995)
		}
		out[i] = sp
	}
	return &Profile{Job: job, Stages: out}, nil
}

// MustNew is New that panics on error, for static definitions.
func MustNew(job *dag.Job, stages []StageProfile) *Profile {
	p, err := New(job, stages)
	invariant.NoErr(err, "profile: MustNew on a static definition")
	return p
}

// FromTrace extracts a profile from a recorded execution. Stages with no
// successful attempts in the trace (which cannot happen in a completed run)
// cause an error.
func FromTrace(job *dag.Job, tr *trace.JobTrace) (*Profile, error) {
	if job == nil || tr == nil {
		return nil, fmt.Errorf("profile: nil job or trace")
	}
	stages := make([]StageProfile, job.NumStages())
	for s := range stages {
		exec := tr.ExecSamples(s)
		if len(exec) == 0 {
			return nil, fmt.Errorf("profile: trace of %q has no successful attempts for stage %q",
				tr.JobName, job.Stages[s].Name)
		}
		// Queue uses init latency only: token waiting re-emerges when the
		// profile is replayed under an allocation, so baking observed waits
		// into the distribution would double-count them.
		inits := tr.InitSamples(s)
		stages[s] = StageProfile{
			Exec:        stats.NewEmpirical(exec),
			Queue:       stats.NewEmpirical(inits),
			FailureProb: tr.FailureRate(s),
			TotalWork:   tr.StageWork(s),
			TotalQueue:  tr.StageQueue(s),
			LongestTask: tr.LongestTask(s),
		}
	}
	return &Profile{Job: job, Stages: stages, TrainingCompletion: tr.Completion}, nil
}

// TotalWork returns Σ_s T_s, the job's aggregate CPU time.
func (p *Profile) TotalWork() time.Duration {
	var sum time.Duration
	for _, s := range p.Stages {
		sum += s.TotalWork
	}
	return sum
}

// TotalQueue returns Σ_s Q_s.
func (p *Profile) TotalQueue() time.Duration {
	var sum time.Duration
	for _, s := range p.Stages {
		sum += s.TotalQueue
	}
	return sum
}

// CriticalPath returns the length of the plan's critical path where each
// stage costs its longest observed task l_s — the paper's feasibility bound:
// no deadline shorter than this is achievable at any allocation.
func (p *Profile) CriticalPath() time.Duration {
	return p.Job.CriticalPath(func(s int) time.Duration { return p.Stages[s].LongestTask })
}

// LongestPathAfter returns, for each stage s, the paper's L_s: the length of
// the longest l-weighted path from s to the end of the job, excluding s's
// own cost.
func (p *Profile) LongestPathAfter() []time.Duration {
	inclusive := p.Job.LongestPathsFrom(func(s int) time.Duration { return p.Stages[s].LongestTask })
	out := make([]time.Duration, len(inclusive))
	for s, v := range inclusive {
		out[s] = v - p.Stages[s].LongestTask
	}
	return out
}

// Scale returns a copy of the profile with all service times (and the
// derived aggregates) multiplied by factor, modelling a proportionally
// larger input. Queueing distributions and failure probabilities are
// unchanged.
func (p *Profile) Scale(factor float64) *Profile {
	invariant.Assertf(factor > 0, "profile: Scale(%v) of job %q needs a positive factor", factor, p.Job.Name)
	stages := make([]StageProfile, len(p.Stages))
	for i, sp := range p.Stages {
		stages[i] = StageProfile{
			Exec:        stats.Scaled{Base: sp.Exec, Factor: factor},
			Queue:       sp.Queue,
			FailureProb: sp.FailureProb,
			TotalWork:   time.Duration(float64(sp.TotalWork) * factor),
			TotalQueue:  sp.TotalQueue,
			LongestTask: time.Duration(float64(sp.LongestTask) * factor),
		}
	}
	return &Profile{Job: p.Job, Stages: stages, TrainingCompletion: p.TrainingCompletion}
}
