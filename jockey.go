// Package jockey provides guaranteed job latency for DAG-structured data
// parallel jobs in shared clusters, reproducing "Jockey: Guaranteed Job
// Latency in Data Parallel Clusters" (Ferguson et al., EuroSys 2012).
//
// Jockey combines three components:
//
//   - an offline, event-based job simulator that precomputes C(p, a) — the
//     distribution of remaining completion time at progress p under token
//     allocation a — from a profile of a prior run;
//   - a progress indicator (totalworkWithQ by default) that maps a running
//     job's per-stage completion fractions to the scalar p;
//   - a control loop that, every minute, grants the minimum allocation
//     maximizing the job's expected utility, moderated by slack, hysteresis
//     and a dead zone.
//
// The package also contains everything needed to evaluate the system
// without a production cluster: a discrete-event shared-cluster simulator
// with token-based weighted fair sharing, work-conserving spare-capacity
// redistribution, eviction and failure injection; a SCOPE-like plan
// language; and workload generators reproducing the paper's evaluation
// jobs.
//
// # Quick start
//
//	// Describe (or compile, or profile) a job plan.
//	job := jockey.NewJobBuilder("wordcount").
//		Stage("map", 100).
//		Stage("reduce", 10).
//		Edge("map", "reduce", jockey.AllToAll).
//		MustBuild()
//
//	// Attach per-stage statistics (here parametric; production use
//	// extracts them from a recorded run with jockey.ProfileFromTrace).
//	prof := jockey.MustNewProfile(job, []jockey.StageProfile{
//		{Exec: jockey.LognormalFromMedian(5*time.Second, 20*time.Second)},
//		{Exec: jockey.LognormalFromMedian(30*time.Second, 60*time.Second)},
//	})
//
//	// Build the runtime (runs the offline simulations) and a policy.
//	jk, err := jockey.New(prof, jockey.Options{Seed: 42})
//	pol, err := jk.Policy(30 * time.Minute)
//
//	// Run the job under the policy on a (simulated) shared cluster.
//	cl, err := jockey.NewCluster(jockey.ClusterConfig{Seed: 1})
//	h, err := cl.Submit(jockey.JobConfig{
//		Profile: prof, Policy: pol,
//		Deadline: 30 * time.Minute, Tracked: true,
//	})
//	err = cl.Run()
//	fmt.Println(h.Result().Met, h.Result().Completion)
//
// See the examples directory for complete programs, and internal/experiments
// for the reproduction of every table and figure of the paper.
package jockey

import (
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/fleet"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/scope"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

// Plan graph (package internal/dag).
type (
	// Job is an immutable execution plan: stages of parallel tasks
	// connected by dataflow edges.
	Job = dag.Job
	// Stage is one operator of a plan.
	Stage = dag.Stage
	// Edge is a dataflow dependency between stages.
	Edge = dag.Edge
	// EdgeKind distinguishes pipelined from barrier edges.
	EdgeKind = dag.EdgeKind
	// JobBuilder accumulates stages and edges into a validated Job.
	JobBuilder = dag.Builder
)

// Edge kinds.
const (
	// OneToOne pipelines: each consumer task reads a slice of producers.
	OneToOne = dag.OneToOne
	// AllToAll is a full shuffle and acts as a barrier.
	AllToAll = dag.AllToAll
)

// NewJobBuilder starts a new plan.
func NewJobBuilder(name string) *JobBuilder { return dag.NewBuilder(name) }

// CompileScript compiles a SCOPE-like script (package internal/scope) into
// a Job plan.
func CompileScript(src string) (*Job, error) { return scope.Compile(src) }

// Profiles (package internal/profile).
type (
	// Profile carries a job plan plus per-stage statistics: the input to
	// Jockey's models.
	Profile = profile.Profile
	// StageProfile holds one stage's statistics.
	StageProfile = profile.StageProfile
)

// NewProfile builds a profile from explicit per-stage statistics.
func NewProfile(job *Job, stages []StageProfile) (*Profile, error) {
	return profile.New(job, stages)
}

// MustNewProfile is NewProfile that panics on error.
func MustNewProfile(job *Job, stages []StageProfile) *Profile {
	return profile.MustNew(job, stages)
}

// ProfileFromTrace extracts a profile from a recorded execution — the
// paper's "single profile run" path for recurring jobs.
func ProfileFromTrace(job *Job, tr *JobTrace) (*Profile, error) {
	return profile.FromTrace(job, tr)
}

// Distributions (package internal/stats).
type (
	// Distribution models task service times, init latencies, etc.
	Distribution = stats.Distribution
	// Lognormal is the heavy-tailed workhorse distribution.
	Lognormal = stats.Lognormal
	// Exponential distribution.
	Exponential = stats.Exponential
	// Uniform distribution on an interval.
	Uniform = stats.Uniform
	// Point is a degenerate (constant) distribution.
	Point = stats.Point
	// Truncated caps another distribution's samples.
	Truncated = stats.Truncated
)

// LognormalFromMedian builds a lognormal matching a median and a 90th
// percentile.
func LognormalFromMedian(median, p90 time.Duration) Lognormal {
	return stats.LognormalFromMedian(median, p90)
}

// The Jockey runtime (package internal/core).
type (
	// Jockey is the per-job runtime: offline model + policy factory.
	Jockey = core.Jockey
	// Options configures the runtime; the zero value gives the paper's
	// defaults. Options.Parallelism bounds the worker pool running the
	// offline C(p, a) simulations (default GOMAXPROCS); the model built is
	// bit-identical at any setting.
	Options = core.Options
	// IndicatorName selects a progress indicator.
	IndicatorName = core.IndicatorName
)

// The six progress indicators of the paper.
const (
	TotalWorkWithQ = core.TotalWorkWithQ
	TotalWork      = core.TotalWork
	VertexFrac     = core.VertexFrac
	CP             = core.CP
	MinStage       = core.MinStage
	MinStageInf    = core.MinStageInf
)

// New builds the Jockey runtime for a profiled job, running the offline
// simulations that populate the C(p, a) model.
func New(p *Profile, opts Options) (*Jockey, error) { return core.New(p, opts) }

// Control loop (package internal/control).
type (
	// Policy decides a job's guaranteed token allocation each period.
	Policy = control.Policy
	// Decision is one policy output.
	Decision = control.Decision
	// ControllerConfig parameterizes a standalone controller.
	ControllerConfig = control.Config
)

// NewController builds a standalone Jockey control loop from a predictor
// and a utility function; most callers use Jockey.Policy instead.
func NewController(cfg ControllerConfig) (Policy, error) {
	return control.NewController(cfg)
}

// NewMaxAllocationPolicy returns the max-allocation baseline.
func NewMaxAllocationPolicy(tokens int) (Policy, error) {
	return control.NewMaxAllocation(tokens)
}

// Model-staleness guard rails (package internal/control). Jockey.GuardedPolicy
// builds a ready-wired Guard for a profiled job; these aliases let callers
// tune it or assemble one from custom parts.
type (
	// Guard wraps a controller with deviation detection, online
	// re-profiling and the CPA → OnlineSim → Amdahl → max-allocation
	// fallback chain. Wire Guard.ObserveTask to JobConfig.OnTaskEvent.
	Guard = control.Guard
	// GuardTuning holds the guard's knobs; the zero value gives defaults.
	GuardTuning = control.GuardTuning
	// GuardConfig assembles a Guard from custom parts (see
	// Jockey.GuardConfig for the ready-wired path).
	GuardConfig = control.GuardConfig
	// GuardEvent is one logged guard transition (reprofile, fallback,
	// panic, recover).
	GuardEvent = control.GuardEvent
	// GuardMode is a rung of the fallback chain.
	GuardMode = control.GuardMode
	// BlendOptions tunes BlendProfiles.
	BlendOptions = profile.BlendOptions
)

// NewGuard builds the guard-rail layer around a controller; most callers use
// Jockey.GuardedPolicy instead.
func NewGuard(cfg GuardConfig) (*Guard, error) { return control.NewGuard(cfg) }

// BlendProfiles merges live task observations into a prior profile,
// count-weighted — the data path of online re-profiling, usable standalone
// for profile refresh between recurring runs.
func BlendProfiles(prior *Profile, live *JobTrace, opts BlendOptions) (*Profile, error) {
	return profile.Blend(prior, live, opts)
}

// Utility curves (package internal/utility).
type (
	// UtilityFn maps completion time to economic utility.
	UtilityFn = utility.Fn
	// PiecewiseLinear is a piecewise-linear utility curve.
	PiecewiseLinear = utility.PiecewiseLinear
)

// DeadlineUtility builds the paper's standard deadline curve.
func DeadlineUtility(d time.Duration) *PiecewiseLinear { return utility.Deadline(d) }

// SoftDeadlineUtility builds a non-penalizing soft-deadline curve.
func SoftDeadlineUtility(d, grace time.Duration) *PiecewiseLinear {
	return utility.SoftDeadline(d, grace)
}

// Shared-cluster simulator (package internal/cluster).
type (
	// Cluster is the discrete-event shared-cluster simulator.
	Cluster = cluster.Cluster
	// ClusterConfig describes the simulated cluster.
	ClusterConfig = cluster.Config
	// JobConfig submits one job.
	JobConfig = cluster.JobConfig
	// JobHandle refers to a submitted job.
	JobHandle = cluster.Handle
	// Result summarizes a completed job.
	Result = cluster.Result
	// DeadlineChange reschedules a job's SLO mid-run.
	DeadlineChange = cluster.DeadlineChange
	// StageDrift injects a mid-run service-time drift (ClusterConfig or
	// JobConfig perturbations).
	StageDrift = cluster.StageDrift
	// RackOutage takes a contiguous machine range down for a while.
	RackOutage = cluster.RackOutage
	// ContentionWindow caps the fraction of guaranteed tokens the
	// scheduler honors during a window.
	ContentionWindow = cluster.ContentionWindow
)

// NewCluster creates a shared-cluster simulator.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Offline simulator and traces.
type (
	// JobTrace records one execution: task events and allocation timeline.
	JobTrace = trace.JobTrace
	// TaskEvent is one task attempt.
	TaskEvent = trace.TaskEvent
	// SimConfig parameterizes one offline simulation.
	SimConfig = sim.Config
	// Indicator estimates job progress from stage completion fractions.
	Indicator = progress.Indicator
	// State is the observable state of a running job.
	State = model.State
	// Predictor estimates remaining completion time.
	Predictor = model.Predictor
)

// Simulate runs the offline job simulator once on a fresh SimRunner and
// returns its trace, which the caller owns. The snapshots handed to
// SimConfig.OnSample are valid only during the callback; copy FracDone to
// retain one.
func Simulate(cfg SimConfig) (*JobTrace, error) { return sim.NewRunner().Run(cfg) }

// SimRunner is a reusable simulation engine: the first Run against a job
// plan allocates the engine's arenas, subsequent Runs against the same
// plan reset them in place and are allocation-free. Results are
// bit-identical to Simulate. Not safe for concurrent use — hold one per
// goroutine. The returned trace and the snapshots handed to
// SimConfig.OnSample are valid only until the next Run.
type SimRunner = sim.Runner

// NewSimRunner creates a reusable simulation engine for loops that run
// many simulations of the same job (model sweeps, what-if analysis).
func NewSimRunner() *SimRunner { return sim.NewRunner() }

// Oracle returns the theoretical minimum allocation ⌈T/d⌉ for total work T
// and deadline d.
func Oracle(totalWork, deadline time.Duration) int { return model.Oracle(totalWork, deadline) }

// Fleet arbitration: the multi-job admission and arbitration layer.
// FleetRun replays a deterministic stream of recurring SLO-job offers
// through admission, per-epoch utility-driven re-arbitration of the global
// token budget, and graceful degradation (deferral, rejection, guard-panic
// containment) under overload or faults.
type (
	// FleetConfig configures one fleet replay.
	FleetConfig = fleet.Config
	// FleetArbitration selects the arbitration discipline.
	FleetArbitration = fleet.Arbitration
	// FleetResult is the replay outcome with per-job records.
	FleetResult = fleet.Result
	// FleetJobRecord is one offer's full admission/arbitration history.
	FleetJobRecord = fleet.JobRecord
	// FleetEpochStats is the per-epoch observer payload.
	FleetEpochStats = fleet.EpochStats
	// FleetModelCache shares per-shape profiles and C(p, a) models across
	// jobs and replays.
	FleetModelCache = fleet.ModelCache
)

// Fleet arbitration disciplines.
const (
	FleetFIFO          = fleet.FIFO
	FleetFairShare     = fleet.FairShare
	FleetUtilityGreedy = fleet.UtilityGreedy
)

// FleetRun executes one deterministic fleet replay.
func FleetRun(cfg FleetConfig) (*FleetResult, error) { return fleet.Run(cfg) }

// NewFleetModelCache creates a shareable model cache for fleet replays. The
// cache is safe for concurrent use and its models depend only on the seed
// and job shape, never on warm-up order.
func NewFleetModelCache(seed uint64) *FleetModelCache { return fleet.NewModelCache(seed) }

// OnlineSimPredictor is the §4.4 enhancement: instead of indexing
// precomputed C(p, a) tables through a progress indicator, it re-runs the
// job simulator at control time from the job's actual per-stage state.
// More precise, far more expensive per decision.
type OnlineSimPredictor = model.OnlineSim

// NewOnlineSimPredictor builds the online predictor; runs forward
// simulations per (state, allocation) query. The forward runs of one query
// execute on a worker pool (see OnlineSimPredictor.SetParallelism); the
// predictions are bit-identical at any pool size.
func NewOnlineSimPredictor(p *Profile, runs int, seed uint64) (*OnlineSimPredictor, error) {
	return model.NewOnlineSim(p, runs, seed)
}

// ParseUtility builds a utility curve from its textual form:
// "deadline 60m", "soft 1h grace 30m", or "0:1, 60m:1, 70m:-1, 1060m:-1000".
func ParseUtility(s string) (*PiecewiseLinear, error) { return utility.Parse(s) }
