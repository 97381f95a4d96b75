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
// The paper's comparison baselines ("Jockey w/o adaptation", "Jockey w/o
// simulator", max allocation) are built by internal/experiments from a
// runtime's Model and Grid.
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
	"github.com/jockeysim/jockey/internal/trace"
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
	// MaxTokens tops the candidate allocation grid, DefaultGrid(MaxTokens)
	// (default 100, the experiments' full slice).
	MaxTokens int
	// RunsPerAlloc for the offline C(p, a) table (default 10).
	RunsPerAlloc int
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
	grid      []int
	p         *profile.Profile
	indicator progress.Indicator
	cpa       *model.CPA
}

// New builds the Jockey runtime for a profiled job, running the offline
// simulations that populate the C(p, a) table. It is NewIndicators with the
// one indicator opts.Indicator.
func New(p *profile.Profile, opts Options) (*Jockey, error) {
	if opts.Indicator == "" {
		opts.Indicator = TotalWorkWithQ
	}
	js, err := NewIndicators(p, opts, opts.Indicator)
	if err != nil {
		return nil, err
	}
	return js[0], nil
}

// NewIndicators builds one runtime per named indicator under one Options,
// from a single pass of offline simulations (model.Builder.BuildCPAs).
// Runtime j is exactly New(p, opts) with opts.Indicator set to names[j];
// opts.Indicator itself is ignored.
func NewIndicators(p *profile.Profile, opts Options, names ...IndicatorName) ([]*Jockey, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no indicator to build")
	}
	if opts.MaxTokens <= 0 {
		opts.MaxTokens = 100
	}
	grid := DefaultGrid(opts.MaxTokens)
	inds := make([]progress.Indicator, len(names))
	for j, name := range names {
		ind, err := BuildIndicator(name, p, stats.DeriveSeed(opts.Seed, "indicator"))
		if err != nil {
			return nil, err
		}
		inds[j] = ind
	}
	cpas, err := new(model.Builder).BuildCPAs(p, inds, model.CPAConfig{
		Allocs:       grid,
		RunsPerAlloc: opts.RunsPerAlloc,
		Seed:         stats.DeriveSeed(opts.Seed, "cpa"),
		Parallelism:  opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	// The grid is read-only, so the runtimes share it.
	out := make([]*Jockey, len(names))
	for j, name := range names {
		o := opts
		o.Indicator = name
		out[j] = &Jockey{
			opts:      o,
			grid:      grid,
			p:         p,
			indicator: inds[j],
			cpa:       cpas[j],
		}
	}
	return out, nil
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
	var ref *trace.JobTrace
	var err error
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
		ref, err = sim.NewRunner().Run(sim.Config{Profile: p, Alloc: alloc, Seed: seed})
	case MinStageInf:
		ref, err = sim.RunInfinite(p, seed)
	default:
		return nil, fmt.Errorf("core: unknown indicator %q", name)
	}
	if err != nil {
		return nil, err
	}
	return progress.NewMinStage(progress.SpansFromTrace(ref, p.Job.NumStages())), nil
}

// Profile returns the job profile the runtime was built from.
func (j *Jockey) Profile() *profile.Profile { return j.p }

// Indicator returns the configured progress indicator.
func (j *Jockey) Indicator() progress.Indicator { return j.indicator }

// Model returns the simulator-backed C(p, a) predictor.
func (j *Jockey) Model() *model.CPA { return j.cpa }

// Grid returns the candidate allocation grid.
func (j *Jockey) Grid() []int { return j.grid }

func (j *Jockey) controlConfig(deadline time.Duration) control.Config {
	return control.Config{Predictor: j.cpa, Utility: utility.Deadline(deadline), Candidates: j.grid}
}

// Policy returns a fresh full-Jockey controller for the given deadline.
// Policies carry per-run state; build one per execution.
func (j *Jockey) Policy(deadline time.Duration) (control.Policy, error) {
	return control.NewController(j.controlConfig(deadline))
}

// GuardedPolicy wraps the full Jockey controller in the model-staleness
// guard-rail layer: see Guard.
func (j *Jockey) GuardedPolicy(deadline time.Duration) (*control.Guard, error) {
	ctrl, err := control.NewController(j.controlConfig(deadline))
	if err != nil {
		return nil, err
	}
	return j.Guard(ctrl, nil)
}

// Guard wraps a controller (any knob combination) in the model-staleness
// guard-rail layer (control.Guard): a deviation detector scoring the
// controller's predictor against observed progress, online re-profiling that
// blends live task observations into this runtime's prior profile and
// rebuilds the C(p, a) table mid-run (the parallel build, deterministic at
// any Options.Parallelism), and a max-allocation panic when the model is
// stale and even the full budget is predicted to miss. Wire the guard's ObserveTask to
// cluster.JobConfig.OnTaskEvent so it sees live task completions.
//
// The rebuilds run on b, which the caller owns for the length of one replay
// and may share between the guards of that replay, since a replay runs one
// rebuild at a time. The guard retires each rebuilt table into b once a
// newer one replaces it, and its last one and its live-trace buffer at
// Guard.Close, so the replay's later rebuilds and guards reuse them. A nil
// b gives the guard a Builder of its own.
func (j *Jockey) Guard(ctrl *control.Controller, b *model.Builder) (*control.Guard, error) {
	if b == nil {
		b = new(model.Builder)
	}
	rebuild := func(p *profile.Profile, gen int) (model.Predictor, error) {
		// Per-generation seeds keep rebuilds deterministic for a fixed
		// Options.Seed no matter when staleness fires.
		ind, err := BuildIndicator(j.opts.Indicator, p,
			stats.DeriveSeed(j.opts.Seed, "guard-indicator", fmt.Sprint(gen)))
		if err != nil {
			return nil, err
		}
		return b.BuildCPA(p, ind, model.CPAConfig{
			Allocs:       j.grid,
			RunsPerAlloc: j.opts.RunsPerAlloc,
			Seed:         stats.DeriveSeed(j.opts.Seed, "guard-cpa", fmt.Sprint(gen)),
			Parallelism:  j.opts.Parallelism,
		})
	}
	return control.NewGuard(control.GuardConfig{
		Controller:     ctrl,
		Prior:          j.p,
		RebuildPrimary: rebuild,
		Builder:        b,
	})
}

// PredictLatency returns the q-quantile of the modelled end-to-end latency
// at a fixed allocation (progress 0).
func (j *Jockey) PredictLatency(alloc int, q float64) time.Duration {
	st := model.State{FracDone: make([]float64, j.p.Job.NumStages())}
	return model.Remaining(j.cpa, st, alloc, q)
}

// Feasible reports whether the deadline is achievable at all: it must
// exceed the profile's critical path (§2.2).
func (j *Jockey) Feasible(deadline time.Duration) bool {
	return deadline > j.p.CriticalPath()
}

// RequiredAllocation returns the minimum grid allocation whose predicted
// worst-case latency (padded by the default slack, control.DefaultSlack)
// meets the deadline, or (0, false) if none does.
func (j *Jockey) RequiredAllocation(deadline time.Duration) (int, bool) {
	for _, a := range j.grid {
		pred := time.Duration(float64(j.PredictLatency(a, 1.0)) * control.DefaultSlack)
		if pred <= deadline {
			return a, true
		}
	}
	return 0, false
}
