// Package core is the Jockey runtime: it assembles the paper's three
// components (offline simulator model, progress indicator, control loop)
// around a job profile and produces ready-to-run allocation policies.
//
// Typical use:
//
//	p, _ := profile.FromTrace(job, trainingRun)
//	jk, _ := core.New(p, core.Options{Seed: 42})
//	pol, _ := jk.Policy(time.Hour)            // full Jockey
//	cluster.Submit(cluster.JobConfig{Profile: groundTruth, Policy: pol, ...})
//
// Baselines for the paper's comparisons come from StaticPolicy ("Jockey w/o
// adaptation"), AmdahlPolicy ("Jockey w/o simulator") and MaxPolicy.
package core

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
)

// IndicatorName selects a progress indicator (§4.2, §5.4).
type IndicatorName string

// The six indicators the paper evaluates.
const (
	TotalWorkWithQ IndicatorName = "totalworkWithQ" // Jockey's default
	TotalWork      IndicatorName = "totalwork"
	VertexFrac     IndicatorName = "vertexfrac"
	CP             IndicatorName = "cp"
	MinStage       IndicatorName = "minstage"
	MinStageInf    IndicatorName = "minstage-inf"
)

// Options configures the Jockey runtime. The zero value gives the paper's
// defaults.
type Options struct {
	// Indicator selects the progress indicator (default TotalWorkWithQ).
	Indicator IndicatorName
	// AllocGrid is the candidate allocation grid; default: geometric steps
	// from 1 to MaxTokens.
	AllocGrid []int
	// MaxTokens caps the grid (default 100, the experiments' full slice).
	MaxTokens int
	// RunsPerAlloc for the offline C(p, a) table (default 10).
	RunsPerAlloc int
	// SampleEvery for offline progress samples (default 30s).
	SampleEvery time.Duration
	// Slack, Hysteresis, DeadZone, ControlPeriod: the control-loop knobs
	// (§4.3); zero values take the paper's defaults (1.2, 0.2, 3min, 1min).
	Slack         float64
	Hysteresis    float64
	DeadZone      time.Duration
	ControlPeriod time.Duration
	// Seed drives offline simulation.
	Seed uint64
	// Parallelism bounds the worker pool for the offline C(p, a)
	// simulations (default: runtime.GOMAXPROCS(0)). The resulting model is
	// bit-identical at any value — per-run seeds are derived independently
	// and samples are merged in deterministic order — so this is purely a
	// wall-clock knob.
	Parallelism int
}

// Jockey holds the precomputed model for one recurring job.
type Jockey struct {
	opts      Options
	p         *profile.Profile
	indicator progress.Indicator
	cpa       *model.CPA
	amdahl    *model.Amdahl
}

// New builds the Jockey runtime for a profiled job, running the offline
// simulations that populate the C(p, a) table.
func New(p *profile.Profile, opts Options) (*Jockey, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	if opts.Indicator == "" {
		opts.Indicator = TotalWorkWithQ
	}
	if opts.MaxTokens <= 0 {
		opts.MaxTokens = 100
	}
	if len(opts.AllocGrid) == 0 {
		opts.AllocGrid = DefaultGrid(opts.MaxTokens)
	}
	ind, err := BuildIndicator(opts.Indicator, p, stats.DeriveSeed(opts.Seed, "indicator"))
	if err != nil {
		return nil, err
	}
	cpa, err := model.BuildCPA(p, ind, model.CPAConfig{
		Allocs:       opts.AllocGrid,
		RunsPerAlloc: opts.RunsPerAlloc,
		SampleEvery:  opts.SampleEvery,
		Seed:         stats.DeriveSeed(opts.Seed, "cpa"),
		Parallelism:  opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &Jockey{
		opts:      opts,
		p:         p,
		indicator: ind,
		cpa:       cpa,
		amdahl:    model.NewAmdahl(p),
	}, nil
}

// DefaultGrid returns geometric candidate allocations 1..max (≈1.33× steps).
func DefaultGrid(max int) []int {
	var out []int
	prev := 0
	for v := 1.0; int(v) <= max; v *= 1.33 {
		if int(v) != prev {
			out = append(out, int(v))
			prev = int(v)
		}
	}
	if prev != max {
		out = append(out, max)
	}
	return out
}

// BuildIndicator constructs a progress indicator by name. The minstage
// variants require reference runs, which are produced with the offline
// simulator (a constrained run for minstage, an unconstrained one for
// minstage-inf).
func BuildIndicator(name IndicatorName, p *profile.Profile, seed uint64) (progress.Indicator, error) {
	switch name {
	case TotalWorkWithQ:
		return progress.NewTotalWorkWithQ(p), nil
	case TotalWork:
		return progress.NewTotalWork(p), nil
	case VertexFrac:
		return progress.NewVertexFrac(p), nil
	case CP:
		return progress.NewCP(p), nil
	case MinStage:
		alloc := model.Oracle(p.TotalWork(), p.CriticalPath()*4)
		if alloc < 1 {
			alloc = 1
		}
		ref, err := sim.NewRunner().Run(sim.Config{Profile: p, Alloc: alloc, Seed: seed})
		if err != nil {
			return nil, err
		}
		return progress.NewMinStage(progress.SpansFromTrace(ref, p.Job.NumStages())), nil
	case MinStageInf:
		ref, err := sim.RunInfinite(p, seed)
		if err != nil {
			return nil, err
		}
		return progress.NewMinStageInf(progress.SpansFromTrace(ref, p.Job.NumStages())), nil
	default:
		return nil, fmt.Errorf("core: unknown indicator %q", name)
	}
}

// Profile returns the job profile the runtime was built from.
func (j *Jockey) Profile() *profile.Profile { return j.p }

// Indicator returns the configured progress indicator.
func (j *Jockey) Indicator() progress.Indicator { return j.indicator }

// Model returns the simulator-backed C(p, a) predictor.
func (j *Jockey) Model() *model.CPA { return j.cpa }

// Grid returns the candidate allocation grid.
func (j *Jockey) Grid() []int { return j.opts.AllocGrid }

func (j *Jockey) controlConfig(pred model.Predictor, u utility.Fn) control.Config {
	return control.Config{
		Predictor:  pred,
		Utility:    u,
		Candidates: j.opts.AllocGrid,
		Slack:      j.opts.Slack,
		Hysteresis: j.opts.Hysteresis,
		DeadZone:   j.opts.DeadZone,
	}
}

// Policy returns a fresh full-Jockey controller for the given deadline.
// Policies carry per-run state; build one per execution.
func (j *Jockey) Policy(deadline time.Duration) (control.Policy, error) {
	return j.PolicyWithUtility(utility.Deadline(deadline))
}

// PolicyWithUtility is Policy with an explicit utility curve.
func (j *Jockey) PolicyWithUtility(u utility.Fn) (control.Policy, error) {
	return control.NewController(j.controlConfig(j.cpa, u))
}

// GuardedPolicy wraps the full Jockey controller in the model-staleness
// guard-rail layer (control.Guard): a deviation detector scoring the C(p, a)
// model against observed progress, online re-profiling that blends live task
// observations into the prior profile and rebuilds the table mid-run (the
// parallel build, deterministic at any Options.Parallelism), and the
// CPA → OnlineSim → Amdahl → max-allocation fallback chain. Wire the
// returned guard's ObserveTask to cluster.JobConfig.OnTaskEvent so it sees
// live task completions. The zero GuardTuning gives the defaults.
func (j *Jockey) GuardedPolicy(deadline time.Duration, tuning control.GuardTuning) (*control.Guard, error) {
	return j.GuardedPolicyWithUtility(utility.Deadline(deadline), tuning)
}

// GuardedPolicyWithUtility is GuardedPolicy with an explicit utility curve.
func (j *Jockey) GuardedPolicyWithUtility(u utility.Fn, tuning control.GuardTuning) (*control.Guard, error) {
	ctrl, err := control.NewController(j.controlConfig(j.cpa, u))
	if err != nil {
		return nil, err
	}
	return control.NewGuard(j.GuardConfig(ctrl, tuning))
}

// GuardConfig wires a caller-built controller (any knob combination) to this
// runtime's prior profile and model-rebuild paths, ready for
// control.NewGuard. Most callers use GuardedPolicy instead.
func (j *Jockey) GuardConfig(ctrl *control.Controller, tuning control.GuardTuning) control.GuardConfig {
	rebuild := func(p *profile.Profile, gen int) (model.Predictor, error) {
		// Per-generation seeds keep rebuilds deterministic for a fixed
		// Options.Seed no matter when staleness fires.
		ind, err := BuildIndicator(j.opts.Indicator, p,
			stats.DeriveSeed(j.opts.Seed, "guard-indicator", fmt.Sprint(gen)))
		if err != nil {
			return nil, err
		}
		return model.BuildCPA(p, ind, model.CPAConfig{
			Allocs:       j.opts.AllocGrid,
			RunsPerAlloc: j.opts.RunsPerAlloc,
			SampleEvery:  j.opts.SampleEvery,
			Seed:         stats.DeriveSeed(j.opts.Seed, "guard-cpa", fmt.Sprint(gen)),
			Parallelism:  j.opts.Parallelism,
		})
	}
	onlineSim := func(p *profile.Profile, gen int) (model.Predictor, error) {
		os, err := model.NewOnlineSim(p, 0,
			stats.DeriveSeed(j.opts.Seed, "guard-onlinesim", fmt.Sprint(gen)))
		if err != nil {
			return nil, err
		}
		os.SetParallelism(j.opts.Parallelism)
		return os, nil
	}
	return control.GuardConfig{
		Controller:     ctrl,
		Prior:          j.p,
		RebuildPrimary: rebuild,
		NewOnlineSim:   onlineSim,
		Tuning:         tuning,
	}
}

// StaticPolicy returns the "Jockey w/o adaptation" baseline: the simulator
// model picks one allocation up front and never adapts.
func (j *Jockey) StaticPolicy(deadline time.Duration) (control.Policy, error) {
	return control.NewStatic(j.controlConfig(j.cpa, utility.Deadline(deadline)))
}

// AmdahlPolicy returns the "Jockey w/o simulator" baseline: dynamic control
// driven by the analytic Amdahl's-Law model.
func (j *Jockey) AmdahlPolicy(deadline time.Duration) (control.Policy, error) {
	return control.NewController(j.controlConfig(j.amdahl, utility.Deadline(deadline)))
}

// MaxPolicy returns the max-allocation baseline at the grid's maximum.
func (j *Jockey) MaxPolicy() (control.Policy, error) {
	return control.NewMaxAllocation(j.opts.AllocGrid[len(j.opts.AllocGrid)-1])
}

// PredictLatency returns the q-quantile of the modelled end-to-end latency
// at a fixed allocation (progress 0).
func (j *Jockey) PredictLatency(alloc int, q float64) time.Duration {
	st := model.State{FracDone: make([]float64, j.p.Job.NumStages())}
	return j.cpa.Remaining(st, alloc, q)
}

// Feasible reports whether the deadline is achievable at all: it must
// exceed the profile's critical path (§2.2).
func (j *Jockey) Feasible(deadline time.Duration) bool {
	return deadline > j.p.CriticalPath()
}

// RequiredAllocation returns the minimum grid allocation whose predicted
// worst-case latency (with the configured slack) meets the deadline, or
// (0, false) if none does.
func (j *Jockey) RequiredAllocation(deadline time.Duration) (int, bool) {
	slack := j.opts.Slack
	if slack == 0 {
		slack = control.DefaultSlack
	}
	for _, a := range j.opts.AllocGrid {
		pred := time.Duration(float64(j.PredictLatency(a, 1.0)) * slack)
		if pred <= deadline {
			return a, true
		}
	}
	return 0, false
}

// Fits is the admission-control check of §1: can this job meet its deadline
// with at most `available` guaranteed tokens left in the cluster?
func (j *Jockey) Fits(deadline time.Duration, available int) bool {
	need, ok := j.RequiredAllocation(deadline)
	return ok && need <= available
}

// ControlPeriod returns the configured control period (defaulted).
func (j *Jockey) ControlPeriod() time.Duration {
	if j.opts.ControlPeriod > 0 {
		return j.opts.ControlPeriod
	}
	return control.DefaultPeriod
}
