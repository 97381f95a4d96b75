// Package cluster is a discrete-event simulator of a shared data-parallel
// cluster in the style of Cosmos (§2.1 of the paper). It provides the
// execution environment Jockey is evaluated in:
//
//   - machines × slots define total capacity; one running task uses one
//     token (slot);
//   - every job has a guaranteed token count; guaranteed demand is always
//     satisfied, evicting spare-capacity tasks if necessary;
//   - unused capacity is redistributed to jobs with pending tasks as
//     *spare* tokens via smooth weighted round-robin (work-conserving
//     weighted fair sharing, like the paper's cluster);
//   - tasks started on spare tokens run at lower priority: they are evicted
//     (losing their work) when guaranteed demand needs their slot;
//   - machines fail and recover, killing their running tasks;
//   - per-job control policies (package control) adjust the guaranteed
//     token count periodically, which is exactly Jockey's actuation knob.
//
// Determinism: all randomness flows from the configured seed; event ties
// break by insertion order.
package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/eventq"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// maxSimTime aborts a run whose next event lies beyond this simulated
// horizon: a guard against misconfigured workloads.
const maxSimTime = 240 * time.Hour

// MinControlPeriod is the shortest control period Submit accepts. A
// replay's cost grows as 1/period, and maxSimTime bounds simulated time,
// not control ticks, so a nanosecond period would never finish.
const MinControlPeriod = time.Second

// Config describes the simulated cluster.
type Config struct {
	// Machines is the number of servers (default 25).
	Machines int
	// SlotsPerMachine is the token capacity of each server (default 4).
	SlotsPerMachine int
	// MachineMTBF is the mean time between machine failures across the
	// whole cluster fleet; zero disables machine failures.
	MachineMTBF time.Duration
	// MachineRecovery is the outage duration distribution (default: 5min).
	MachineRecovery stats.Distribution
	// Seed drives all cluster randomness.
	Seed uint64
	// RackOutages schedules correlated multi-machine failures (a rack or
	// container losing power/network), unlike the independent failures MTBF
	// models. Used to manufacture conditions a training run never saw.
	RackOutages []RackOutage
	// Contention schedules cluster-wide token-contention windows during
	// which jobs receive fewer tokens than their nominal guarantee —
	// modelling over-subscription, where the promise is not honored.
	Contention []ContentionWindow
	// OnEpoch, if set, is invoked every EpochPeriod starting at time zero,
	// before a scheduling pass. It is the hook a cluster-wide arbiter (the
	// fleet layer) uses to admit jobs and re-set guarantees mid-run: the
	// callback may call Submit and Handle.SetGuarantee; the epoch handler
	// reschedules once afterwards. Returning false stops the epoch chain.
	// Run drops the hook when it returns, so the epoch chain ends with the
	// first Run and an idle Engine does not keep the hook's closure (a
	// whole fleet replay) alive until its next Reset.
	OnEpoch func(now time.Duration) bool
	// EpochPeriod is the OnEpoch cadence (default 1 minute when OnEpoch is
	// set; ignored otherwise).
	EpochPeriod time.Duration
}

// RackOutage takes a contiguous range of machines down together at a fixed
// cluster time — a correlated failure, as opposed to MachineMTBF's
// independent ones.
type RackOutage struct {
	// At is the outage time on the cluster clock.
	At time.Duration
	// FirstMachine is the index of the first machine in the rack.
	FirstMachine int
	// Machines is how many consecutive machines go down.
	Machines int
	// Duration is how long the rack stays down.
	Duration time.Duration
}

// ContentionWindow models token over-subscription during [From, To): every
// job's dispatchable guarantee is scaled down to Frac of its nominal value
// (allocation accounting still charges the nominal guarantee — the promise —
// which is exactly what makes a controller's model stale).
type ContentionWindow struct {
	// From and To bound the window on the cluster clock.
	From, To time.Duration
	// Frac in [0, 1) scales each job's dispatchable guarantee.
	Frac float64
}

// StageDrift multiplies one stage's (or every stage's) task service times by
// Factor from a point in the job's run onward — input growth, data skew, or
// slow hardware the profile run never saw. Only attempts dispatched after At
// are affected.
type StageDrift struct {
	// At is the offset from job start at which the drift appears.
	At time.Duration
	// Stage is the affected stage index; -1 applies the drift to all stages.
	Stage int
	// Factor multiplies task service times (must be > 0; 2 = tasks take
	// twice as long as profiled).
	Factor float64
}

// defaultRecovery is the default Config.MachineRecovery, boxed once so that
// an engine's Reset allocates nothing.
var defaultRecovery stats.Distribution = stats.Exponential{MeanValue: 5 * time.Minute}

func (c *Config) fill() error {
	if c.Machines == 0 {
		c.Machines = 25
	}
	if c.SlotsPerMachine == 0 {
		c.SlotsPerMachine = 4
	}
	if c.Machines < 1 || c.SlotsPerMachine < 1 {
		return fmt.Errorf("cluster: need at least one machine and one slot, got %d×%d",
			c.Machines, c.SlotsPerMachine)
	}
	// Compared as a quotient: Machines×SlotsPerMachine can overflow.
	if c.SlotsPerMachine > math.MaxInt32/c.Machines {
		return &capacityTooLargeError{machines: c.Machines, slots: c.SlotsPerMachine}
	}
	if c.MachineRecovery == nil {
		c.MachineRecovery = defaultRecovery
	}
	for i, r := range c.RackOutages {
		if r.At < 0 || r.Duration <= 0 {
			return fmt.Errorf("cluster: rack outage %d needs At >= 0 and Duration > 0, got At=%v Duration=%v",
				i, r.At, r.Duration)
		}
		// Compared as a difference: FirstMachine+Machines can overflow.
		if r.Machines < 1 || r.FirstMachine < 0 || r.Machines > c.Machines-r.FirstMachine {
			return fmt.Errorf("cluster: rack outage %d spans %d machines from machine %d of a %d-machine cluster",
				i, r.Machines, r.FirstMachine, c.Machines)
		}
	}
	for i, w := range c.Contention {
		if w.From < 0 || w.To <= w.From {
			return fmt.Errorf("cluster: contention window %d needs 0 <= From < To, got [%v, %v)",
				i, w.From, w.To)
		}
		if !(w.Frac >= 0 && w.Frac < 1) { // NaN fails too
			return fmt.Errorf("cluster: contention window %d fraction %v out of [0, 1)", i, w.Frac)
		}
	}
	if c.OnEpoch != nil && c.EpochPeriod <= 0 {
		c.EpochPeriod = time.Minute
	}
	return nil
}

// DeadlineChange reschedules a job's SLO mid-run (§5.2 "Adapting to changes
// in deadlines").
type DeadlineChange struct {
	// At is the offset from job start at which the change takes effect.
	At time.Duration
	// Deadline is the new deadline; the job's utility becomes
	// utility.Deadline(Deadline).
	Deadline time.Duration
}

// JobConfig submits one job to the cluster.
type JobConfig struct {
	// Profile supplies the plan and the ground-truth distributions used to
	// sample actual task behaviour on this cluster. Required.
	Profile *profile.Profile
	// Policy dynamically sets the job's guaranteed tokens. Nil means the
	// job keeps the fixed Guarantee (typical for background jobs).
	Policy control.Policy
	// Guarantee is the initial (or fixed) guaranteed token count.
	Guarantee int
	// Weight sets the job's share of *spare* tokens relative to other jobs
	// (the paper's weighted fair sharing: "tokens are analogous to tickets
	// in a lottery scheduler or the weights in a weighted fair queuing
	// regime"). Zero means 1.
	Weight int
	// ControlPeriod is how often the policy runs. Zero means 1 minute; a
	// period below MinControlPeriod is an error.
	ControlPeriod time.Duration
	// Deadline is the job's SLO, used for oracle accounting and the Met
	// result. Zero means no SLO.
	Deadline time.Duration
	// Start is the submission time, relative to cluster start.
	Start time.Duration
	// Tracked jobs keep the cluster running until they finish and get a
	// trace (see NoTrace). Background jobs should leave this false.
	Tracked bool
	// NoSpare restricts the job to its guaranteed tokens: it never receives
	// spare capacity. Used for controlled-allocation measurement runs
	// (§2.4's "restricted to using guaranteed capacity only").
	NoSpare bool
	// DeadlineChanges, if any, must be sorted ascending by At.
	DeadlineChanges []DeadlineChange
	// Drifts injects per-stage runtime drift mid-run (see StageDrift) —
	// ground truth diverging from the profile the job's policy was built on.
	Drifts []StageDrift
	// OnTaskEvent, if set, observes every completed task attempt as it
	// happens — the live feed the guard-rail layer (control.Guard) blends
	// into its profile for online re-profiling. Fires for Tracked and
	// untracked jobs alike. A Tracked job that keeps its task events can
	// have its state at any past time read back from its Result.Trace
	// (progress.FracDoneAt).
	OnTaskEvent func(e trace.TaskEvent)
	// NoTrace stops a Tracked job from recording task events. The run
	// still blocks Run until completion and produces a full Result. With a
	// Policy, Result.Trace still holds the allocation timeline and the
	// completion, with no Events; without one, Result.Trace stays nil.
	// Runs whose callers read only the Result or the timeline set it, as do
	// reused-engine benchmarks and steady-state allocation guards, since a
	// trace must outlive the run and therefore cannot come from a reusable
	// arena.
	NoTrace bool
}

// Result summarizes one job's execution.
type Result struct {
	Name string
	// Start is the submission time on the cluster clock.
	Start time.Duration
	// Completion is the job's end-to-end latency (from Start).
	Completion time.Duration
	// Deadline is the job's final SLO (after any mid-run changes).
	Deadline time.Duration
	// Met reports whether Completion <= Deadline (true when Deadline == 0).
	Met bool
	// Oracle is O(T, d) computed from the job's actual total work.
	Oracle int
	// AllocTokenSeconds integrates the guaranteed allocation over the run.
	AllocTokenSeconds float64
	// OracleTokenSeconds is Oracle × Deadline, the oracle's integral.
	OracleTokenSeconds float64
	// SpareTaskFraction is the fraction of successful task attempts that
	// ran on spare tokens.
	SpareTaskFraction float64
	// Evictions counts spare tasks killed to make room for guaranteed work.
	Evictions int
	// Trace is a Tracked job's record: its task events unless NoTrace, and
	// its allocation timeline when it has a Policy. It is nil for an
	// untracked job and for a NoTrace one without a Policy.
	Trace *trace.JobTrace
}

// Handle refers to a submitted job. It lives in the job's pooled jobRun,
// so it is valid only until the cluster's next Reset.
type Handle struct {
	id int
	c  *Cluster
}

// Done reports whether the job has completed.
func (h *Handle) Done() bool { return h.c.jobs[h.id].completed }

// Result returns the job's result; valid only once Done.
func (h *Handle) Result() Result { return h.c.jobs[h.id].result }

// Name returns the job's plan name.
func (h *Handle) Name() string { return h.c.jobs[h.id].job.Name }

// SetGuarantee re-sets the job's guaranteed token count mid-run — the
// actuation knob of an external arbiter (the fleet layer) that owns the
// control loop itself instead of installing a per-job Policy. Allocation
// accounting accrues at the old guarantee up to now. The new guarantee takes
// effect at the next scheduling pass; Config.OnEpoch callbacks get one
// automatically when the epoch handler returns.
func (h *Handle) SetGuarantee(g int) {
	h.c.setGuarantee(h.c.jobs[h.id], g)
}

// Guarantee returns the job's current guaranteed token count.
func (h *Handle) Guarantee() int { return h.c.jobs[h.id].guarantee }

// State returns the job's observable control state (elapsed time and
// per-stage completion fractions) at the cluster's current time. Before the
// job's arrival event has fired it returns the zero state: elapsed 0 and all
// stage fractions 0, which is exactly the state the job is in at arrival.
// A completed job reports every stage fully done.
func (h *Handle) State() model.State {
	jr := h.c.jobs[h.id]
	switch {
	case !jr.arrived:
		return model.State{FracDone: make([]float64, jr.job.NumStages())}
	case jr.completed:
		frac := make([]float64, jr.job.NumStages())
		for s := range frac {
			frac[s] = 1
		}
		return model.State{Elapsed: h.c.now - jr.start, FracDone: frac}
	}
	return jr.state(h.c.now)
}

// Hold keeps Run from returning even when no tracked job is pending: Run
// loops while tracked jobs or holds remain. An arbiter that admits jobs
// mid-run (from Config.OnEpoch) holds the cluster before Run and releases
// with Unhold once its arrival stream is drained; without the hold, Run
// would return immediately when called before the first admission.
func (c *Cluster) Hold() { c.holds++ }

// Unhold releases one Hold.
func (c *Cluster) Unhold() {
	if c.holds > 0 {
		c.holds--
	}
}

// Cluster is the simulator instance. Create with New (a fresh Engine's
// cluster) or Engine.Reset (an engine reused across runs), submit jobs,
// then Run.
type Cluster struct {
	cfg    Config
	rng    *rand.Rand
	rngSrc *rand.PCG // retained so Engine.Reset can reseed without allocating
	q      eventq.Queue[event]
	now    time.Duration

	jobs    []*jobRun
	tracked int // tracked jobs not yet completed
	holds   int // open Hold()s keeping Run alive (the fleet arbiter's latch)

	// live counts the jobs that have arrived and not yet completed: the
	// room arrive reserves in ready.
	live int
	// ready indexes the live jobs with ready work (syncReady), which
	// dispatchSpare walks, in live order (cmpLive): tracked jobs first, then
	// untracked ones, each in job-id (submission) order. A fleet replay
	// admits thousands of jobs over one cluster's lifetime, and most live
	// jobs have no ready work at any one pass, so a walk over ready costs
	// only the jobs that can take a slot. Picks that break ties by job order
	// (spare round-robin, eviction) compare job ids explicitly.
	ready []*jobRun
	// owedTracked and owedUntracked are the job-id sets of the owed jobs:
	// those in ready whose guaranteed class is smaller than their effective
	// guarantee, tracked and untracked ones apart. Walking the first and then
	// the second in id order is the live order, so dispatchGuaranteed visits
	// the jobs it can serve in ready's order without walking ready itself;
	// on a full cluster almost no ready job is owed. syncOwed keeps them,
	// from reclassify and toggleReady.
	owedTracked   bitset
	owedUntracked bitset

	// dirty heads the intrusive stack (jobRun.dirtyNext) of jobs whose
	// class partition the next reclassify must repair.
	dirty *jobRun
	// frac is the contention factor in force at c.now (contentionFrac),
	// re-derived only when the clock moves.
	frac float64
	// spareTops is a max-heap of the live jobs that have a spare attempt,
	// keyed by each job's latest-started spare (jobRun.spareTop), so the
	// eviction pick is its root.
	spareTops []*jobRun

	// Machine state is struct-of-arrays, indexed by machine id. Every
	// machine has cfg.SlotsPerMachine slots; up/available membership lives
	// in the two bitsets so the dispatchers never scan the fleet:
	//
	//   - upBits: machine is up;
	//   - availBits: machine is up AND has a free slot (the invariant every
	//     used/up transition maintains) — freeMachine is availBits.first().
	//
	// mDown is the latest scheduled recovery time; recover events firing
	// earlier are stale (an overlapping rack outage extended the downtime).
	// mHead heads each machine's intrusive doubly-linked list of running
	// attempts (store.nextM/prevM), so killing a machine walks exactly its
	// own tasks.
	mUsed     []int32
	mDown     []time.Duration
	mHead     []int32
	upBits    bitset
	availBits bitset
	upCount   int
	upCap     int // Σ slots over up machines (Capacity without the scan)

	// store holds all live task attempts; totalRunning counts them
	// cluster-wide for utilization accounting.
	store        taskStore
	totalRunning int

	// busySecs/availSecs accumulate the utilization integral event by event
	// in chronological order — the same float additions, in the same order,
	// as the retired per-event sample log, so Utilization() is bit-identical
	// while a cosmos-scale replay no longer retains millions of samples.
	busySecs     float64
	availSecs    float64
	lastUtilTime time.Duration

	// eng is the Engine that owns this cluster and pools its jobRuns and
	// task sets.
	eng *Engine

	// Scheduling scratch buffers, reused across events so the hot path
	// (eviction / locality lookup, which run on nearly every event) does
	// not allocate. Their contents never outlive one call.
	scratchSlots    []int32
	scratchReplicas []int
}

// New creates an empty cluster: the cluster of a fresh Engine, for a caller
// that runs it once.
func New(cfg Config) (*Cluster, error) { return NewEngine().Reset(cfg) }

// init (re)initializes the cluster for cfg, for Engine.Reset. On a reused
// engine every backing array keeps its capacity and the RNG stream after
// the reseed is bit-identical to a fresh one.
func (c *Cluster) init(cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	c.cfg = cfg
	seed := stats.DeriveSeed(cfg.Seed, "cluster")
	if c.rngSrc == nil {
		c.rngSrc = stats.NewSource(seed)
		c.rng = rand.New(c.rngSrc)
	} else {
		stats.ReseedSource(c.rngSrc, seed)
	}
	c.q.Reset()
	c.now = 0
	c.tracked = 0
	c.holds = 0
	c.jobs = c.jobs[:0] // Engine.Reset recycled the jobRuns
	c.live = 0
	c.ready = c.ready[:0]
	c.owedTracked.init(0, false)
	c.owedUntracked.init(0, false)
	c.dirty = nil
	c.frac = c.contentionFrac()
	c.spareTops = c.spareTops[:0]
	c.store.reset()
	c.totalRunning = 0
	c.busySecs = 0
	c.availSecs = 0
	c.lastUtilTime = 0
	if cap(c.mUsed) < cfg.Machines {
		c.mUsed = make([]int32, cfg.Machines)
		c.mDown = make([]time.Duration, cfg.Machines)
		c.mHead = make([]int32, cfg.Machines)
	}
	c.mUsed = c.mUsed[:cfg.Machines]
	c.mDown = c.mDown[:cfg.Machines]
	c.mHead = c.mHead[:cfg.Machines]
	clear(c.mUsed)
	clear(c.mDown)
	for i := range c.mHead {
		c.mHead[i] = -1
	}
	c.upBits.init(cfg.Machines, true)
	c.availBits.init(cfg.Machines, true)
	c.upCount = cfg.Machines
	c.upCap = cfg.Machines * cfg.SlotsPerMachine
	if cfg.MachineMTBF > 0 {
		c.scheduleNextMachineFailure()
	}
	for i, r := range cfg.RackOutages {
		c.q.Push(r.At, event{kind: evRackOutage, arg: int32(i)})
	}
	for _, w := range cfg.Contention {
		// Boundary events force a scheduling pass when the effective
		// guarantee changes; the window itself is evaluated from the clock.
		c.q.Push(w.From, event{kind: evContention})
		c.q.Push(w.To, event{kind: evContention})
	}
	if cfg.OnEpoch != nil {
		// The first epoch fires at time zero, before any same-time arrival
		// (insertion-order tie-break), so an arbiter sees the cluster from
		// the very start.
		c.q.Push(0, event{kind: evEpoch})
	}
	return nil
}

// JobSeed returns the seed that the id-th job submitted to a cluster seeded
// clusterSeed samples its task attempts from. A sim.Runner seeded with it
// replays a lone Tracked NoSpare job exactly.
func JobSeed(clusterSeed uint64, id int) uint64 {
	return stats.DeriveSeedLabelInt(clusterSeed, "job", id)
}

// Capacity returns the current total token capacity of up machines.
func (c *Cluster) Capacity() int { return c.upCap }

// Now returns the current simulated time.
func (c *Cluster) Now() time.Duration { return c.now }

// Utilization returns the time-weighted average fraction of capacity in use
// over the run so far.
func (c *Cluster) Utilization() float64 {
	if c.availSecs == 0 {
		return 0
	}
	return c.busySecs / c.availSecs
}

// Submit adds a job to the cluster. It may be called before Run or from the
// future via JobConfig.Start.
func (c *Cluster) Submit(cfg JobConfig) (*Handle, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("cluster: JobConfig.Profile is required")
	}
	if cfg.Guarantee < 0 {
		return nil, fmt.Errorf("cluster: job %q has negative guarantee %d", cfg.Profile.Job.Name, cfg.Guarantee)
	}
	if cfg.Policy == nil && cfg.Guarantee == 0 {
		return nil, fmt.Errorf("cluster: job %q has neither a policy nor a fixed guarantee",
			cfg.Profile.Job.Name)
	}
	if cfg.Weight < 0 {
		return nil, fmt.Errorf("cluster: job %q has negative weight %d", cfg.Profile.Job.Name, cfg.Weight)
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	if cfg.ControlPeriod < 0 {
		return nil, fmt.Errorf("cluster: job %q has negative control period %v", cfg.Profile.Job.Name, cfg.ControlPeriod)
	}
	if cfg.ControlPeriod == 0 {
		cfg.ControlPeriod = control.DefaultPeriod
	}
	if cfg.ControlPeriod < MinControlPeriod {
		return nil, fmt.Errorf("cluster: job %q has control period %v, below the %v floor", cfg.Profile.Job.Name, cfg.ControlPeriod, MinControlPeriod)
	}
	if cfg.Start < c.now {
		cfg.Start = c.now
	}
	for i, dc := range cfg.DeadlineChanges {
		if dc.At < 0 || dc.Deadline <= 0 {
			return nil, fmt.Errorf("cluster: job %q deadline change %d needs At >= 0 and Deadline > 0, got At=%v Deadline=%v",
				cfg.Profile.Job.Name, i, dc.At, dc.Deadline)
		}
		if i > 0 && dc.At < cfg.DeadlineChanges[i-1].At {
			return nil, fmt.Errorf("cluster: job %q deadline change %d at %v precedes change %d at %v; changes must be sorted by time",
				cfg.Profile.Job.Name, i, dc.At, i-1, cfg.DeadlineChanges[i-1].At)
		}
	}
	for i, d := range cfg.Drifts {
		if d.At < 0 {
			return nil, fmt.Errorf("cluster: job %q drift %d has negative time %v", cfg.Profile.Job.Name, i, d.At)
		}
		if !(d.Factor > 0) || math.IsInf(d.Factor, 1) {
			return nil, fmt.Errorf("cluster: job %q drift %d has factor %v, want positive and finite", cfg.Profile.Job.Name, i, d.Factor)
		}
		if d.Stage < -1 || d.Stage >= cfg.Profile.Job.NumStages() {
			return nil, fmt.Errorf("cluster: drift %d references stage %d, job %q has %d stages",
				i, d.Stage, cfg.Profile.Job.Name, cfg.Profile.Job.NumStages())
		}
	}
	for s, st := range cfg.Profile.Job.Stages {
		if int64(st.Tasks) > math.MaxInt32 {
			return nil, &stageTooLargeError{job: cfg.Profile.Job.Name, stage: st.Name, index: s, tasks: st.Tasks}
		}
	}
	if err := dag.Trackable(cfg.Profile.Job); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	id := len(c.jobs)
	jr := c.eng.takeRun()
	jr.prepare(id, cfg, JobSeed(c.cfg.Seed, id))
	jr.h = Handle{id: id, c: c}
	c.jobs = append(c.jobs, jr)
	c.owedTracked.grow(len(c.jobs))
	c.owedUntracked.grow(len(c.jobs))
	if cfg.Tracked {
		c.tracked++
	}
	c.q.Push(cfg.Start, event{kind: evArrival, job: int32(id)})
	return &jr.h, nil
}

// stageTooLargeError rejects a plan whose stage holds more tasks than the
// engine's int32 task indices can name.
type stageTooLargeError struct {
	job, stage string
	index      int
	tasks      int
}

func (e *stageTooLargeError) Error() string {
	return fmt.Sprintf("cluster: job %q stage %q (index %d) has %d tasks; the cluster supports at most %d per stage",
		e.job, e.stage, e.index, e.tasks, math.MaxInt32)
}

// capacityTooLargeError rejects a cluster with more slots than the
// engine's int32 slot ids and per-machine counters can name; a cluster
// with more machines than int32 machine indices can name has more slots
// still.
type capacityTooLargeError struct {
	machines, slots int
}

func (e *capacityTooLargeError) Error() string {
	return fmt.Sprintf("cluster: %d machines × %d slots per machine; the cluster supports at most %d slots in all",
		e.machines, e.slots, math.MaxInt32)
}

// jobRun is the runtime state of one submitted job. Its per-task arrays
// live in a taskSet, whose size depends only on the plan (*dag.Job): the job
// takes one from the Engine's free sets when it arrives and returns it when
// it completes, so only live jobs hold one. The rest is per-run state, (re)set
// in place by prepare; jobRuns are pooled by the Engine too, of any plan. A
// submitted job that never arrives costs only the jobRun.
type jobRun struct {
	h      Handle
	id     int
	cfg    JobConfig
	p      *profile.Profile
	job    *dag.Job
	rng    *rand.Rand
	rngSrc *rand.PCG

	arrived   bool
	completed bool
	// inReady marks membership in the cluster's ready index: whether deps
	// held ready work when it last changed. It sits in the padding after
	// the flags above, so it moves no other field.
	inReady bool
	start   time.Duration
	result  Result

	guarantee int
	deadline  time.Duration

	// taskSet holds the per-task arrays while the job is live: nil before
	// arrival and after completion.
	*taskSet

	// prim lists the job's running attempts in taskStore.less order. The
	// guaranteed class is a prefix of prim: its first guarCount attempts,
	// ending at guarLast (-1 when empty). So the oldest spare attempt follows
	// guarLast and the youngest is prim's tail, when that is not guarLast.
	// liveRunning counts prim; the spare count is liveRunning-guarCount.
	prim        slotList
	guarLast    int32
	liveRunning int
	guarCount   int

	// dirty marks membership in the cluster's dirty stack, linked through
	// dirtyNext.
	dirty     bool
	dirtyNext *jobRun
	// spareTop is the job's latest-started spare attempt (-1 when it has
	// none) and topPos its index in Cluster.spareTops (-1 when absent).
	spareTop int32
	topPos   int32

	// allocation accounting
	lastAllocAt time.Duration
	allocSecs   float64
	work        time.Duration // execution time of every ended attempt
	spareDone   int
	guarDone    int
	evictions   int
	spareCredit float64 // smoothed-weighted-round-robin deficit counter
}

// taskSet is a live job's per-task state. Its arrays are sized by a plan
// alone, so a set serves any job of its plan (profiles may differ — a
// scaled input keeps the plan), and, reshaped, any plan its arrays hold.
// The set's plan is its tracker's. The Engine keeps free sets, rewound, on
// one list whatever their plan.
type taskSet struct {
	// deps tracks which tasks are done and ready, their attempt counts and
	// queued times.
	deps dag.Tracker

	// slot maps a task, by its deps.Index, to the store slot of its running
	// attempt (-1 when none) — the O(1) lookup that replaces the running map
	// of earlier engines. A task has at most one running attempt.
	slot []int32

	// driftFactor multiplies each stage's sampled service times (1 until a
	// StageDrift fires; drifts compound multiplicatively).
	driftFactor []float64
}

// newTaskSet allocates a rewound set for job.
func newTaskSet(job *dag.Job) *taskSet {
	ts := &taskSet{slot: make([]int32, job.TotalTasks()), driftFactor: make([]float64, job.NumStages())}
	ts.deps.Init(job)
	ts.rewind()
	return ts
}

// holds reports whether the set's arrays have room for a plan of the given
// task and stage counts. A set's arrays never grow: its tracker's were
// allocated with its slot table and drift factors, for the plan it was
// created for, and a reshape only reslices them.
func (ts *taskSet) holds(tasks, stages int) bool {
	return cap(ts.slot) >= tasks && cap(ts.driftFactor) >= stages
}

// reshape fits a free set that holds job to it, allocating nothing. A free
// set is rewound, so the reshaped set's state equals newTaskSet(job)'s.
func (ts *taskSet) reshape(job *dag.Job) {
	ts.deps.Init(job)
	ts.slot = ts.slot[:ts.deps.Left()]
	ts.driftFactor = ts.driftFactor[:job.NumStages()]
}

// rewind returns the set to its state at arrival: nothing done or running,
// and no drift.
func (ts *taskSet) rewind() {
	ts.deps.Reset()
	for i := range ts.slot {
		ts.slot[i] = -1
	}
	for s := range ts.driftFactor {
		ts.driftFactor[s] = 1
	}
}

// arrive marks the job arrived at the cluster's current time and gives it a
// rewound task set shaped for its plan. It also reserves room in the ready
// index for every live job, so that syncReady never grows it. handleArrival
// calls it, and so do tests that stage a job's arrival by hand.
func (c *Cluster) arrive(jr *jobRun) {
	c.live++
	c.ready = slices.Grow(c.ready, c.live-len(c.ready))
	jr.taskSet = c.eng.takeSet(jr.job)
	jr.arrived = true
	jr.start = c.now
	jr.lastAllocAt = c.now
}

// release returns a completed job's task set to the engine. A completed job
// has no running attempt and no ready task, and debug builds assert so.
func (c *Cluster) release(jr *jobRun) {
	if invariant.Debug {
		jr.assertIdle()
	}
	c.eng.putSet(jr.taskSet)
	jr.taskSet = nil
	c.live--
}

// assertIdle checks that the job runs no attempt and has no ready task. It
// boxes the Assertf arguments only on failure, so the allocation guards
// hold in debug builds too.
func (jr *jobRun) assertIdle() {
	if jr.deps.Len() > 0 {
		invariant.Assertf(false, "cluster: job %d (%s) returns its task set with %d ready tasks",
			jr.id, jr.job.Name, jr.deps.Len())
	}
	for s, st := range jr.job.Stages {
		for t := range st.Tasks {
			if slot := jr.slot[jr.deps.Index(s, t)]; slot >= 0 {
				invariant.Assertf(false, "cluster: job %d (%s) returns its task set with stage %d task %d running in slot %d",
					jr.id, jr.job.Name, s, t, slot)
			}
		}
	}
}

// prepare (re)sets the per-run state for one submission. It touches no
// per-task array: the job has none until it arrives. The reseeded RNG
// stream is bit-identical to a fresh one, so a pooled jobRun replays exactly
// like a newly allocated one.
func (jr *jobRun) prepare(id int, cfg JobConfig, seed uint64) {
	jr.id = id
	jr.cfg = cfg
	jr.p = cfg.Profile
	jr.job = cfg.Profile.Job
	if jr.rngSrc == nil {
		jr.rngSrc = stats.NewSource(seed)
		jr.rng = rand.New(jr.rngSrc)
	} else {
		stats.ReseedSource(jr.rngSrc, seed)
	}
	jr.arrived = false
	jr.completed = false
	jr.start = 0
	jr.result = Result{}
	jr.guarantee = cfg.Guarantee
	jr.deadline = cfg.Deadline
	jr.inReady = false
	jr.prim = slotList{-1, -1}
	jr.guarLast = -1
	jr.liveRunning = 0
	jr.guarCount = 0
	jr.dirty = false
	jr.dirtyNext = nil
	jr.spareTop = -1
	jr.topPos = -1
	jr.lastAllocAt = 0
	jr.allocSecs = 0
	jr.work = 0
	jr.spareDone = 0
	jr.guarDone = 0
	jr.evictions = 0
	jr.spareCredit = 0
}

// state returns the job's control state. Its FracDone is freshly
// allocated on every call, because policies and flight records keep it.
func (jr *jobRun) state(now time.Duration) model.State {
	frac := make([]float64, jr.job.NumStages())
	jr.deps.FracDone(frac)
	return model.State{Elapsed: now - jr.start, FracDone: frac}
}

//jockey:hotpath
func (jr *jobRun) accrueAlloc(now time.Duration) {
	if !jr.arrived || jr.completed {
		return
	}
	dt := (now - jr.lastAllocAt).Seconds()
	if dt > 0 {
		jr.allocSecs += float64(jr.guarantee) * dt
	}
	jr.lastAllocAt = now
}
