// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 and §5). Each experiment is a function returning a typed
// result with a Render method that prints the same rows/series the paper
// reports. Artifacts lists them in run order with their quick and full run
// counts and output files; cmd/experiments runs that list, and the
// repository's benchmarks drive the experiments too.
//
// The shared Env builds, per run: a ground-truth job (package workload), a
// training execution on an idle cluster slice (from which Jockey's profile
// is extracted, as in the paper), the offline C(p, a) model, and a loaded
// shared cluster with Poisson background jobs at ~80% utilization.
package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/grid"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
	"github.com/jockeysim/jockey/internal/workload"
)

// PolicyKind selects the allocation policy of an SLO run.
type PolicyKind string

const (
	// The four policies of §5.1.
	PolicyJockey PolicyKind = "jockey"          // simulator model + adaptation
	PolicyStatic PolicyKind = "jockey-no-adapt" // simulator model, fixed quota
	PolicyAmdahl PolicyKind = "jockey-no-sim"   // Amdahl model + adaptation
	PolicyMax    PolicyKind = "max-allocation"  // all tokens, all the time

	// PolicyJockeyGuarded wraps the Jockey controller in the
	// model-staleness guard rails (control.Guard), fed live task events
	// from the cluster.
	PolicyJockeyGuarded PolicyKind = "jockey-guarded"
	// PolicyJockeyOnline drives the Jockey controller with online forward
	// simulation (model.OnlineSim, the §4.4 enhancement) instead of the
	// precomputed C(p, a) table.
	PolicyJockeyOnline PolicyKind = "jockey-online"
)

// AllPolicies lists the four §5.1 policies in the paper's presentation
// order.
var AllPolicies = []PolicyKind{PolicyJockey, PolicyStatic, PolicyAmdahl, PolicyMax}

// The standard environment of §5.1.
const (
	// machines × slots is the cluster's capacity. The SLO job's policies
	// may use up to maxTokens; background guarantees use part of the rest.
	machines, slots = 30, 5
	// maxTokens is the top of the candidate allocation grid (the paper's
	// experiments guarantee up to 100 tokens).
	maxTokens = 100
	// trainAlloc is the fixed allocation of training runs.
	trainAlloc = 50
	// trainScale is the input scale of the training run. The paper builds
	// Jockey's offline distributions "using the largest observed input"
	// (§4.4) so the model over-provisions and adaptation releases; 1.15 is
	// in the upper half of the per-run jitter range [0.8, 1.5).
	trainScale = 1.15
	// bgMeanInterarrival is the mean gap between background job arrivals
	// of the interfering load, before a run's per-day level factor.
	bgMeanInterarrival = 78 * time.Second
)

// Env.training simulates the training run on sim.Runner, which equals a lone
// cluster job only on a cluster that holds the whole training allocation.
// This constant overflows uint, a compile error, unless
// machines × slots >= trainAlloc.
const _ uint = machines*slots - trainAlloc

// Env is the shared experimental environment. The zero value is not usable;
// construct with NewEnv.
type Env struct {
	// Seed is the master seed all sub-seeds derive from.
	Seed uint64
	// Parallelism bounds the worker pools of offline C(p, a) builds and of
	// online forward prediction (0 = runtime.GOMAXPROCS(0)). Results are
	// bit-identical at any value, so experiments stay reproducible.
	Parallelism int
	// GridParallel bounds the experiment-level worker pool: how many grid
	// points (independent SLO runs) execute concurrently (0 =
	// runtime.GOMAXPROCS(0), 1 = serial). Rendered experiment output is
	// bit-identical at any value; the golden determinism tests pin this.
	GridParallel int

	// Shared models, built once per environment with per-key single-flight:
	// a cache hit never waits behind another key's in-flight build, and
	// concurrent grid workers needing the same model share one construction.
	grounds  grid.Cache[*profile.Profile] // ground truth by job name
	trains   grid.Cache[*trainEntry]      // training run by job name
	runtimes grid.Cache[[]*core.Jockey]   // by job name, in AllIndicators order
	surge    grid.Cache[*profile.Profile] // the big-tenant surge profile
}

type trainEntry struct {
	prof  *profile.Profile
	trace *trace.JobTrace
}

// NewEnv builds the standard environment of §5.1.
func NewEnv(seed uint64) *Env {
	return &Env{Seed: seed}
}

// Ground returns the ground-truth profile of a Table 2 job ("A".."G"),
// generated once per environment.
func (e *Env) Ground(job string) (*profile.Profile, error) {
	return e.grounds.Get(job, func() (*profile.Profile, error) {
		spec, err := workload.Spec(job)
		if err != nil {
			return nil, err
		}
		return workload.Generate(spec, stats.DeriveSeed(e.Seed, "ground", job))
	})
}

// Training returns the profile Jockey extracts from a single training run of
// the job: an execution on an otherwise-idle cluster slice at the fixed
// training allocation (the paper's "single production run ... as input to
// the simulator").
func (e *Env) Training(job string) (*profile.Profile, error) {
	te, err := e.training(job)
	if err != nil {
		return nil, err
	}
	return te.prof, nil
}

// TrainingTrace returns the task trace of the training run (Table 2's
// measured columns and Table 3's "training" column).
func (e *Env) TrainingTrace(job string) (*trace.JobTrace, error) {
	te, err := e.training(job)
	if err != nil {
		return nil, err
	}
	return te.trace, nil
}

// training builds the training run single-flight per job. The build calls
// Ground — a different Cache, so no lock is held across the nesting.
//
// The run is a controlled one at exactly the training allocation: a lone
// Tracked NoSpare job at Guarantee trainAlloc on an idle, failure-free
// cluster. Such a job runs exactly as sim.Runner does at that allocation,
// seeded with cluster.JobSeed for job 0 (DESIGN.md §5, pinned by
// TestSimMatchesLoneClusterJob and FuzzSimMatchesCluster), so the run is
// simulated directly. The equality needs machines × slots >= trainAlloc,
// which a constant check enforces at compile time. The Runner is used
// once, so its trace is the entry's to keep; the entry keeps a copy of the
// trace header, because a pointer into the Runner would keep all of the
// Runner's arenas alive.
func (e *Env) training(job string) (*trainEntry, error) {
	return e.trains.Get(job, func() (*trainEntry, error) {
		ground, err := e.Ground(job)
		if err != nil {
			return nil, err
		}
		run, err := sim.NewRunner().Run(sim.Config{
			Profile: ground.Scale(trainScale),
			Alloc:   trainAlloc,
			Seed:    cluster.JobSeed(stats.DeriveSeed(e.Seed, "train-cluster", job), 0),
		})
		if err != nil {
			return nil, err
		}
		tr := *run
		prof, err := profile.FromTrace(ground.Job, &tr)
		if err != nil {
			return nil, err
		}
		return &trainEntry{prof: prof, trace: &tr}, nil
	})
}

// Runtime returns (building and caching on first use) the Jockey runtime
// for a job under the given indicator ("" is totalworkWithQ). The first
// request for a job builds its runtimes under all six AllIndicators
// together, from one pass of offline simulations under the seed of the
// default runtime, so all six tables come from the same simulated runs;
// each equals its own core.New build under that seed. Builds are
// single-flight per job: concurrent grid workers needing the same job's
// models block on one construction, while hits for other jobs return
// immediately.
func (e *Env) Runtime(job string, ind core.IndicatorName) (*core.Jockey, error) {
	if ind == "" {
		ind = core.TotalWorkWithQ
	}
	i := slices.Index(AllIndicators, ind)
	if i < 0 {
		return nil, fmt.Errorf("experiments: job %s: unknown indicator %q", job, ind)
	}
	js, err := e.runtimes.Get(job, func() ([]*core.Jockey, error) {
		train, err := e.Training(job)
		if err != nil {
			return nil, err
		}
		return core.NewIndicators(train, core.Options{
			MaxTokens:    maxTokens,
			RunsPerAlloc: 8,
			Seed:         stats.DeriveSeed(e.Seed, "jockey", job, string(core.TotalWorkWithQ)),
			Parallelism:  e.Parallelism,
		}, AllIndicators...)
	})
	if err != nil {
		return nil, err
	}
	return js[i], nil
}

// Deadlines returns the short and long deadlines used for a job: the short
// one is derived from the model's worst-case latency at half the maximum
// allocation (deadlines are "set based on the length of the critical path",
// §2.2/§5.1), the long one is twice the short one.
func (e *Env) Deadlines(job string) (short, long time.Duration, err error) {
	jk, err := e.Runtime(job, core.TotalWorkWithQ)
	if err != nil {
		return 0, 0, err
	}
	base := jk.PredictLatency(jk.Model().SnapAlloc(maxTokens/2), 1.0)
	// Leave headroom for the control loop's slack (×1.2) and dead zone
	// (3 min): a deadline must be comfortably above the achievable latency
	// for "minimum allocation that meets it" to be a meaningful choice.
	short = time.Duration(float64(base)*1.45) + 3*time.Minute
	short = ((short + time.Minute - 1) / time.Minute) * time.Minute
	if short < 2*time.Minute {
		short = 2 * time.Minute
	}
	return short, 2 * short, nil
}

// Knobs optionally overrides control-loop parameters for a run. Zero fields
// keep the §5.1 defaults; the values pass through to control.Config (Slack,
// Hysteresis, DeadZone: 1 disables slack or smoothing, negative disables the
// dead zone) and cluster.JobConfig (Period).
type Knobs struct {
	Slack      float64
	Hysteresis float64
	DeadZone   time.Duration
	Period     time.Duration
	Indicator  core.IndicatorName
}

// SLORun describes one experiment run.
type SLORun struct {
	Job      string
	Deadline time.Duration
	Policy   PolicyKind
	Seed     uint64 // per-run seed (varies cluster + background)
	Knobs    Knobs
	// Utility overrides the default utility.Deadline(Deadline) curve; the
	// Deadline field still defines the SLO for Met and oracle accounting.
	Utility utility.Fn
	// InputScale multiplies the job's ground-truth service times, modelling
	// the input-size variation across runs of recurring jobs (§2.3; Table 3
	// observes runs needing up to twice the training work). Zero samples a
	// per-run factor in [0.8, 1.5); Jockey's offline model is always
	// trained at scale 1.
	InputScale      float64
	DeadlineChanges []cluster.DeadlineChange
	// Drifts injects per-stage runtime drift into the SLO job (offsets
	// relative to job start, i.e. SLOJobStart on the cluster clock).
	Drifts []cluster.StageDrift
	// RackOutages and Contention perturb the whole cluster (offsets on the
	// cluster clock; the SLO job arrives at SLOJobStart).
	RackOutages []cluster.RackOutage
	Contention  []cluster.ContentionWindow
	// Flight, if non-nil, receives one control.DecisionRecord per control
	// tick of the SLO job's policy. Only policies that support recording
	// emit (the Jockey controller and its guarded variant); recording never
	// perturbs the run (pinned by TestFlightRecordingDoesNotPerturb).
	Flight control.Recorder
	// TaskEvents keeps the SLO job's task events in Outcome.Trace.Events.
	// Without it the trace holds only the allocation timeline and the
	// completion, which is all most runs read.
	TaskEvents bool
	// fixedAlloc, when positive, bypasses the policy and grants a constant
	// allocation for the whole run — the counterfactual replay mode of
	// internal/flight. Everything else (cluster, failures, background load,
	// faults) derives from the same seeds, which is what makes hindsight
	// replays exact.
	fixedAlloc int
}

// SLOJobStart is when RunExec submits the tracked SLO job: it arrives into a
// cluster warmed up by 15 minutes of background load. Cluster-clock
// perturbations (RackOutages, Contention) should be placed relative to it.
const SLOJobStart = 15 * time.Minute

// Outcome is the result of one run with derived metrics.
type Outcome struct {
	cluster.Result
	Policy PolicyKind
	// RelCompletion is completion/deadline (1.0 = exactly on time).
	RelCompletion float64
	// AboveOracle is the fraction of the allocation integral above the
	// oracle's (§5.1's cluster-impact metric).
	AboveOracle float64
	// GuardEvents records the guard-rail transitions of a guarded run
	// (reprofiles, panics, recoveries); nil when unguarded.
	GuardEvents []control.GuardEvent
}

// AllocChurn sums the absolute granted-allocation changes over a timeline —
// the total reallocation the policy imposed on the cluster (token units).
func AllocChurn(tl []trace.AllocPoint) int {
	churn := 0
	for i := 1; i < len(tl); i++ {
		d := tl[i].Granted - tl[i-1].Granted
		if d < 0 {
			d = -d
		}
		churn += d
	}
	return churn
}

// buildPolicy constructs the policy for a run from the cached runtime. A
// guarded policy rebuilds its C(p, a) table on b, the run's Exec's builder.
func (e *Env) buildPolicy(r SLORun, b *model.Builder) (control.Policy, error) {
	jk, err := e.Runtime(r.Job, r.Knobs.Indicator)
	if err != nil {
		return nil, err
	}
	u := utility.Fn(utility.Deadline(r.Deadline))
	if r.Utility != nil {
		u = r.Utility
	}
	cfg := control.Config{
		Utility:    u,
		Candidates: jk.Grid(),
		Slack:      r.Knobs.Slack,
		Hysteresis: r.Knobs.Hysteresis,
		DeadZone:   r.Knobs.DeadZone,
	}
	switch r.Policy {
	case PolicyJockey:
		cfg.Predictor = jk.Model()
		return control.NewController(cfg)
	case PolicyJockeyGuarded:
		cfg.Predictor = jk.Model()
		ctrl, err := control.NewController(cfg)
		if err != nil {
			return nil, err
		}
		return jk.Guard(ctrl, b)
	case PolicyJockeyOnline:
		train, err := e.Training(r.Job)
		if err != nil {
			return nil, err
		}
		online, err := model.NewOnlineSim(train, 5, stats.DeriveSeed(e.Seed, "online", r.Job))
		if err != nil {
			return nil, err
		}
		online.SetParallelism(e.Parallelism)
		cfg.Predictor = online
		return control.NewController(cfg)
	case PolicyStatic:
		cfg.Predictor = jk.Model()
		return control.NewStatic(cfg)
	case PolicyAmdahl:
		train, err := e.Training(r.Job)
		if err != nil {
			return nil, err
		}
		cfg.Predictor = model.NewAmdahl(train)
		return control.NewController(cfg)
	case PolicyMax:
		return control.NewMaxAllocation(maxTokens)
	default:
		return nil, fmt.Errorf("experiments: job %s: unknown policy %q", r.Job, r.Policy)
	}
}

// Exec is one worker's reusable execution state: a cluster engine whose
// arenas persist across runs, a background-plan pool and the C(p, a)
// builder that guarded runs rebuild their tables on. An Exec is not safe
// for concurrent use; runGrid hands each grid worker its own. Runs through
// the same Exec are bit-identical to runs on freshly built clusters (pinned
// by the cluster and workload reuse tests plus the grid golden tests).
type Exec struct {
	engine  *cluster.Engine
	bgPool  *workload.BackgroundPool
	builder model.Builder
}

// NewExec returns an execution context with empty pools.
func NewExec() *Exec {
	return &Exec{engine: cluster.NewEngine(), bgPool: workload.NewBackgroundPool()}
}

// reset readies x's engine as the environment's cluster under cfg, with
// its machine count and slots and machine failures every 90 minutes per
// machine on average, and pre-schedules bg's background fleet on it unless
// bg is nil.
func (x *Exec) reset(cfg cluster.Config, bg *workload.BackgroundConfig) (*cluster.Cluster, error) {
	cfg.Machines, cfg.SlotsPerMachine, cfg.MachineMTBF = machines, slots, 90*time.Minute
	c, err := x.engine.Reset(cfg)
	if err != nil {
		return nil, err
	}
	if bg != nil {
		if _, err := x.bgPool.SubmitBackground(c, *bg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// background is the interfering load of one replay: Poisson background
// jobs seeded by seed, arriving level times as far apart on average as the
// standard bgMeanInterarrival.
func background(seed uint64, level float64) *workload.BackgroundConfig {
	return &workload.BackgroundConfig{
		MeanInterarrival: time.Duration(float64(bgMeanInterarrival) * level),
		Seed:             seed,
	}
}

// replay runs job, tracked, on x's cluster readied by reset and returns its
// result.
func (x *Exec) replay(cfg cluster.Config, bg *workload.BackgroundConfig, job cluster.JobConfig) (cluster.Result, error) {
	c, err := x.reset(cfg, bg)
	if err != nil {
		return cluster.Result{}, err
	}
	job.Tracked = true
	h, err := c.Submit(job)
	if err != nil {
		return cluster.Result{}, err
	}
	if err := c.Run(); err != nil {
		return cluster.Result{}, err
	}
	return h.Result(), nil
}

// RunExec executes one SLO run on x's background-loaded cluster. Results
// are the same on a fresh Exec and on one reused across runs, which
// recycles the cluster's arenas instead of reallocating them.
func (e *Env) RunExec(x *Exec, r SLORun) (Outcome, error) {
	if r.Deadline <= 0 {
		return Outcome{}, fmt.Errorf("experiments: run needs a deadline")
	}
	ground, err := e.Ground(r.Job)
	if err != nil {
		return Outcome{}, err
	}
	scale := r.InputScale
	switch {
	case scale == 0:
		rng := stats.NewRNG(stats.DeriveSeed(e.Seed, "scale", r.Job, fmt.Sprint(r.Seed)))
		scale = 0.8 + 0.7*rng.Float64()
	case !(scale > 0) || math.IsInf(scale, 1):
		return Outcome{}, fmt.Errorf("experiments: job %s: input scale %v must be positive and finite", r.Job, scale)
	}
	if scale != 1 {
		ground = ground.Scale(scale)
	}
	var pol control.Policy
	if r.fixedAlloc > 0 {
		pol, err = control.NewMaxAllocation(r.fixedAlloc)
	} else {
		pol, err = e.buildPolicy(r, &x.builder)
	}
	if err != nil {
		return Outcome{}, err
	}
	if r.Flight != nil {
		if rp, ok := pol.(control.Recordable); ok {
			rp.SetRecorder(r.Flight)
		}
	}
	// Runs happen on different "days": the interfering load level varies
	// run to run, which is what an adaptive policy must cope with.
	bgRng := stats.NewRNG(stats.DeriveSeed(e.Seed, "run-bg-level", r.Job, fmt.Sprint(r.Seed)))
	bg := background(stats.DeriveSeed(e.Seed, "run-bg", r.Job, fmt.Sprint(r.Seed)), 0.6+0.9*bgRng.Float64())
	c, err := x.reset(cluster.Config{
		Seed:        stats.DeriveSeed(e.Seed, "run-cluster", r.Job, fmt.Sprint(r.Seed)),
		RackOutages: r.RackOutages,
		Contention:  r.Contention,
	}, bg)
	if err != nil {
		return Outcome{}, err
	}
	// Some runs coincide with a large high-priority tenant claiming a big
	// guaranteed slice mid-run — the "periods of contention" of §2.4 that
	// drain spare capacity. A static quota sized for normal conditions has
	// no answer; an adaptive policy raises its guarantee.
	if bgRng.Float64() < 0.35 {
		surgeAt := 15*time.Minute + time.Duration(bgRng.Float64()*float64(r.Deadline)/2)
		if err := e.submitSurge(c, surgeAt); err != nil {
			return Outcome{}, err
		}
	}
	var onTask func(trace.TaskEvent)
	if g, ok := pol.(*control.Guard); ok {
		// The guard re-profiles online from the job's live task stream.
		onTask = g.ObserveTask
	}
	h, err := c.Submit(cluster.JobConfig{
		Profile:         ground,
		Policy:          pol,
		Deadline:        r.Deadline,
		ControlPeriod:   r.Knobs.Period,
		Start:           SLOJobStart, // arrive into a warmed-up cluster
		Tracked:         true,
		NoTrace:         !r.TaskEvents,
		DeadlineChanges: r.DeadlineChanges,
		Drifts:          r.Drifts,
		OnTaskEvent:     onTask,
	})
	if err != nil {
		return Outcome{}, err
	}
	if err := c.Run(); err != nil {
		return Outcome{}, err
	}
	res := h.Result()
	out := Outcome{Result: res, Policy: r.Policy}
	if g, ok := pol.(*control.Guard); ok {
		out.GuardEvents = g.Events()
	}
	if res.Deadline > 0 {
		out.RelCompletion = float64(res.Completion) / float64(res.Deadline)
	}
	out.AboveOracle = model.ImpactAboveOracle(res.AllocTokenSeconds, res.OracleTokenSeconds)
	return out, nil
}

// --- text-table rendering shared by all experiments ---

// renderTable renders rows as an aligned text table.
func renderTable(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteString("\n")
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func secs(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds())
}

// submitSurge adds a large tenant with a big guaranteed slice arriving at
// the given time, squeezing spare capacity for the rest of the run. The
// surge profile is built once per environment: its construction draws no
// randomness, and the stable plan pointer lets reusable engines pool the
// 20000-task arena instead of reallocating it every surge run.
func (e *Env) submitSurge(c *cluster.Cluster, at time.Duration) error {
	p, err := e.surge.Get("surge", func() (*profile.Profile, error) {
		job := dag.NewBuilder("surge").Stage("batch", 20000).MustBuild()
		return profile.New(job, []profile.StageProfile{
			{Exec: stats.LognormalFromMedian(40*time.Second, 2*time.Minute),
				Queue: workload.DefaultQueueDelay()},
		})
	})
	if err != nil {
		return err
	}
	_, err = c.Submit(cluster.JobConfig{Profile: p, Guarantee: 45, Start: at})
	return err
}

// runGrid executes the grid points on Env.GridParallel workers and returns
// their results in task order. Each task receives its worker's reusable
// Exec: a worker lazily creates one and reuses it for every task it claims,
// and worker indices partition the exec slice, so no synchronization is
// needed beyond grid.Run's own. Tasks derive their run seeds from Env.Seed
// with labels of their grid coordinates, never of the worker or the claim
// order, so output is bit-identical at any parallelism.
func runGrid[T any](env *Env, tasks []func(x *Exec) (T, error)) ([]T, error) {
	execs := make([]*Exec, grid.Workers(env.GridParallel, len(tasks)))
	out := make([]T, len(tasks))
	err := grid.Run(len(tasks), env.GridParallel, func(worker, i int) error {
		if execs[worker] == nil {
			execs[worker] = NewExec()
		}
		var err error
		out[i], err = tasks[i](execs[worker])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
