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
	"math/rand/v2"
	"time"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/eventq"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

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
	// MaxSimTime aborts a run that exceeds this simulated horizon
	// (default 10 days) — a guard against misconfigured workloads.
	MaxSimTime time.Duration
	// Replicas is the number of machines holding each input partition of a
	// root (extract) stage in the distributed file system (default 3, like
	// GFS/HDFS/Cosmos). Root tasks prefer these machines; running there
	// co-locates storage and computation ("locality", §2.1/§3.1).
	Replicas int
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
	if c.MachineRecovery == nil {
		c.MachineRecovery = stats.Exponential{MeanValue: 5 * time.Minute}
	}
	if c.MaxSimTime <= 0 {
		c.MaxSimTime = 240 * time.Hour
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Replicas < 1 {
		return fmt.Errorf("cluster: need at least one replica, got %d", c.Replicas)
	}
	for i, r := range c.RackOutages {
		if r.At < 0 || r.Duration <= 0 {
			return fmt.Errorf("cluster: rack outage %d needs At >= 0 and Duration > 0, got At=%v Duration=%v",
				i, r.At, r.Duration)
		}
		if r.Machines < 1 || r.FirstMachine < 0 || r.FirstMachine+r.Machines > c.Machines {
			return fmt.Errorf("cluster: rack outage %d spans machines [%d, %d) of a %d-machine cluster",
				i, r.FirstMachine, r.FirstMachine+r.Machines, c.Machines)
		}
	}
	for i, w := range c.Contention {
		if w.From < 0 || w.To <= w.From {
			return fmt.Errorf("cluster: contention window %d needs 0 <= From < To, got [%v, %v)",
				i, w.From, w.To)
		}
		if w.Frac < 0 || w.Frac >= 1 {
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
	// ControlPeriod is how often the policy runs (default 1 minute).
	ControlPeriod time.Duration
	// Deadline is the job's SLO, used for oracle accounting and the Met
	// result. Zero means no SLO.
	Deadline time.Duration
	// Start is the submission time, relative to cluster start.
	Start time.Duration
	// Tracked jobs keep the cluster running until they finish and get a
	// full task-event trace. Background jobs should leave this false.
	Tracked bool
	// NoSpare restricts the job to its guaranteed tokens: it never receives
	// spare capacity. Used for controlled-allocation measurement runs
	// (§2.4's "restricted to using guaranteed capacity only").
	NoSpare bool
	// SpeculativeThreshold enables Mantri-style straggler mitigation (the
	// §4.4 "aggressiveness of mitigating stragglers" knob): when a task has
	// been executing longer than threshold × its stage's p90 service time,
	// a duplicate copy is launched on otherwise-idle spare capacity and the
	// first finisher wins. Zero disables speculation. Values below 1 are
	// rejected (they would duplicate healthy tasks).
	SpeculativeThreshold float64
	// DeadlineChanges, if any, must be sorted ascending by At.
	DeadlineChanges []DeadlineChange
	// Drifts injects per-stage runtime drift mid-run (see StageDrift) —
	// ground truth diverging from the profile the job's policy was built on.
	Drifts []StageDrift
	// OnDecision, if set, observes every control decision.
	OnDecision func(at time.Duration, d control.Decision)
	// OnTaskEvent, if set, observes every completed task attempt as it
	// happens — the live feed the guard-rail layer (control.Guard) blends
	// into its profile for online re-profiling. Fires for Tracked and
	// untracked jobs alike.
	OnTaskEvent func(e trace.TaskEvent)
	// OnSample, if set, observes the job's state every SamplePeriod
	// (default 1 minute), independent of any policy. Used by experiments
	// that replay progress indicators offline.
	OnSample func(at time.Duration, st model.State)
	// SamplePeriod is the OnSample period (default 1 minute).
	SamplePeriod time.Duration
	// NoTrace suppresses the task-event trace of a Tracked job. The run
	// still blocks Run until completion and produces a full Result; only
	// Result.Trace stays nil. Reused-engine benchmarks and steady-state
	// allocation guards use this, since a trace must outlive the run and
	// therefore cannot come from a reusable arena.
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
	// UsedTokenSeconds integrates actually-running tasks over the run.
	UsedTokenSeconds float64
	// SpareTaskFraction is the fraction of successful task attempts that
	// ran on spare tokens.
	SpareTaskFraction float64
	// Evictions counts spare tasks killed to make room for guaranteed work.
	Evictions int
	// Duplicates counts speculative straggler copies launched (0 unless
	// SpeculativeThreshold was set).
	Duplicates int
	// LocalityFraction is the fraction of the job's successful root-stage
	// (extract) task attempts that executed on a machine holding a replica
	// of their input partition. 0 for jobs without root-stage tasks is
	// impossible (every DAG has roots), but the field is 0 if nothing
	// completed locally.
	LocalityFraction float64
	// Trace is the full record (only for Tracked jobs).
	Trace *trace.JobTrace
}

// Handle refers to a submitted job.
type Handle struct {
	id  int
	c   *Cluster
	cfg JobConfig
}

// Done reports whether the job has completed.
func (h *Handle) Done() bool { return h.c.jobs[h.id].completed }

// Result returns the job's result; valid only once Done.
func (h *Handle) Result() Result { return h.c.jobs[h.id].result }

// Name returns the job's plan name.
func (h *Handle) Name() string { return h.cfg.Profile.Job.Name }

// SetGuarantee re-sets the job's guaranteed token count mid-run — the
// actuation knob of an external arbiter (the fleet layer) that owns the
// control loop itself instead of installing a per-job Policy. Allocation
// accounting accrues at the old guarantee up to now. The new guarantee takes
// effect at the next scheduling pass; Config.OnEpoch callbacks get one
// automatically when the epoch handler returns.
func (h *Handle) SetGuarantee(g int) {
	h.c.jobs[h.id].setGuarantee(h.c.now, g)
}

// Guarantee returns the job's current guaranteed token count.
func (h *Handle) Guarantee() int { return h.c.jobs[h.id].guarantee }

// State returns the job's observable control state (elapsed time and
// per-stage completion fractions) at the cluster's current time. Before the
// job's arrival event has fired it returns the zero state: elapsed 0 and all
// stage fractions 0, which is exactly the state the job is in at arrival.
func (h *Handle) State() model.State {
	jr := h.c.jobs[h.id]
	if !jr.arrived {
		return model.State{FracDone: make([]float64, jr.job.NumStages())}
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

// Cluster is the simulator instance. Create with New (one-shot) or via
// Engine.Reset (reusable arenas), submit jobs, then Run.
type Cluster struct {
	cfg    Config
	rng    *rand.Rand
	rngSrc *rand.PCG // retained so Engine.Reset can reseed without allocating
	q      eventq.Queue[event]
	now    time.Duration

	jobs    []*jobRun
	tracked int // tracked jobs not yet completed
	holds   int // open Hold()s keeping Run alive (the fleet arbiter's latch)

	// live indexes the jobs every scheduling pass actually iterates: arrived
	// and not yet completed, kept in job-id (submission) order so dispatch
	// tie-breaks match the full c.jobs scans of earlier engines exactly. A
	// fleet replay admits thousands of jobs over one cluster's lifetime;
	// without this index each reschedule pays O(admitted) even when a
	// handful of jobs are running.
	live []*jobRun

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

	// store holds all live task attempts; totalRunning counts primary (non-
	// duplicate) attempts cluster-wide for utilization accounting.
	store        taskStore
	totalRunning int

	// busySecs/availSecs accumulate the utilization integral event by event
	// in chronological order — the same float additions, in the same order,
	// as the retired per-event sample log, so Utilization() is bit-identical
	// while a cosmos-scale replay no longer retains millions of samples.
	busySecs     float64
	availSecs    float64
	lastUtilTime time.Duration

	// eng is non-nil when this cluster is owned by a reusable Engine, which
	// then pools jobRun arenas across runs.
	eng *Engine

	// Scheduling scratch buffers, reused across events so the hot path
	// (dispatch / eviction / locality lookup, which run on nearly every
	// event) does not allocate. Their contents never outlive one call.
	scratchSlots    []int32
	scratchJobs     []*jobRun
	scratchReplicas []int

	// endBatch buffers the task-end events of one scheduling pass so they
	// are bulk-pushed (eventq.PushBatch) when the pass finishes: an arrival
	// burst that dispatches k tasks pays one amortized queue insert instead
	// of k sifts. No other event is pushed while a pass runs, so the batch
	// gets the same insertion sequences the per-task pushes got and the
	// replay is bit-identical.
	endBatch []eventq.Entry[event]
}

// New creates an empty cluster.
func New(cfg Config) (*Cluster, error) {
	c := &Cluster{}
	if err := c.init(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// init (re)initializes the cluster for cfg. It is shared by New and
// Engine.Reset; on the reuse path every backing array keeps its capacity
// and the RNG stream after the reseed is bit-identical to a fresh one.
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
	c.jobs = c.jobs[:0] // arenas were recycled by Engine.Reset
	c.live = c.live[:0]
	// One scheduling pass can start at most a task per slot, so sizing the
	// batch buffer to cluster capacity up front turns the first dispatch
	// wave's append chain (hundreds of MB of doubling copies at 5e5 slots)
	// into a single exact allocation that Reset then reuses.
	if want := cfg.Machines * cfg.SlotsPerMachine; cap(c.endBatch) < want {
		c.endBatch = make([]eventq.Entry[event], 0, want)
	}
	c.endBatch = c.endBatch[:0]
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
		c.q.Push(r.At, event{kind: evRackOutage, change: i})
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

// Capacity returns the current total token capacity of up machines.
func (c *Cluster) Capacity() int { return c.upCap }

// TotalCapacity returns the capacity with all machines up.
func (c *Cluster) TotalCapacity() int {
	return c.cfg.Machines * c.cfg.SlotsPerMachine
}

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
	if cfg.SpeculativeThreshold != 0 && cfg.SpeculativeThreshold < 1 {
		return nil, fmt.Errorf("cluster: job %q speculative threshold %v must be >= 1 (or 0 to disable)",
			cfg.Profile.Job.Name, cfg.SpeculativeThreshold)
	}
	if cfg.Weight < 0 {
		return nil, fmt.Errorf("cluster: job %q has negative weight %d", cfg.Profile.Job.Name, cfg.Weight)
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = control.DefaultPeriod
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
		if d.Factor <= 0 {
			return nil, fmt.Errorf("cluster: job %q drift %d has non-positive factor %v", cfg.Profile.Job.Name, i, d.Factor)
		}
		if d.Stage < -1 || d.Stage >= cfg.Profile.Job.NumStages() {
			return nil, fmt.Errorf("cluster: drift %d references stage %d, job %q has %d stages",
				i, d.Stage, cfg.Profile.Job.Name, cfg.Profile.Job.NumStages())
		}
	}
	id := len(c.jobs)
	var jr *jobRun
	if c.eng != nil {
		jr = c.eng.takeArena(cfg.Profile.Job)
	}
	if jr == nil {
		jr = newArena(cfg.Profile.Job)
	}
	jr.prepare(id, cfg, stats.DeriveSeed(c.cfg.Seed, "job", fmt.Sprint(id)))
	c.jobs = append(c.jobs, jr)
	if cfg.Tracked {
		c.tracked++
	}
	c.q.Push(cfg.Start, event{kind: evArrival, job: id})
	return &Handle{id: id, c: c, cfg: cfg}, nil
}

// SLODefaults returns a ready-to-use candidate allocation grid 1..max.
func SLODefaults(max int) []int {
	out := make([]int, max)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// jobRun is the runtime state of one submitted job. It is split into an
// arena part — everything whose size depends only on the plan (*dag.Job),
// allocated once by newArena and poolable across runs by Engine — and
// per-run state, (re)set in place by prepare.
type jobRun struct {
	id     int
	cfg    JobConfig
	p      *profile.Profile
	job    *dag.Job
	rng    *rand.Rand
	rngSrc *rand.PCG

	arrived   bool
	completed bool
	start     time.Duration
	result    Result

	guarantee int
	deadline  time.Duration

	ready     []taskRef
	readyHead int

	done      [][]bool
	doneCount []int
	remDeps   [][]int
	// baseRemDeps is the dependency count of every task at job start,
	// derived once from the plan; prepare restores remDeps from it.
	baseRemDeps [][]int
	queuedAt    [][]time.Duration
	attempts    [][]int
	consumers   [][][]taskRef
	tasksLeft   int

	// slot and dupSlot map [stage][task] to the store slot of the running
	// primary attempt / speculative duplicate (-1 when none) — the O(1)
	// lookup that replaces the running/dups maps of earlier engines.
	slot    [][]int32
	dupSlot [][]int32
	// The job's live attempts are partitioned across indexed heaps ordered
	// by taskStore.less, maintained incrementally at every state transition:
	//
	//   - guarHeap (max): primaries charged to guaranteed tokens;
	//   - spareMax (max) and spareMin (min): primaries on spare tokens, in
	//     both directions — the max end answers "youngest spare to evict",
	//     the min end reclassifies spares onto freed guaranteed tokens;
	//   - dupHeap (max): speculative duplicates (always spare-class).
	//
	// liveRunning counts primaries, guarCount the guaranteed-flagged subset;
	// the spare count is their difference.
	guarHeap    slotHeap
	spareMax    slotHeap
	spareMin    slotHeap
	dupHeap     slotHeap
	liveRunning int
	guarCount   int

	stageP90 []time.Duration // per stage, the service-time p90 (speculation trigger)
	// driftFactor multiplies each stage's sampled service times (1 until a
	// StageDrift fires; drifts compound multiplicatively).
	driftFactor []float64

	// allocation accounting
	lastAllocAt time.Duration
	allocSecs   float64
	usedSecs    float64
	spareDone   int
	guarDone    int
	evictions   int
	duplicates  int     // speculative copies launched
	spareCredit float64 // smoothed-weighted-round-robin deficit counter
	rootDone    int     // successful root-stage attempts
	localDone   int     // ... that ran on a replica machine

	nextChange int // index into cfg.DeadlineChanges
}

type taskRef struct{ stage, task int }

// newArena allocates the plan-shape-dependent state of a jobRun: slice
// sizes and the consumer graph depend only on the *dag.Job, so an arena is
// reusable across runs of any job sharing that plan (profiles may differ —
// a scaled input keeps the plan). Per-run state is set by prepare.
func newArena(job *dag.Job) *jobRun {
	jr := &jobRun{job: job}
	n := job.NumStages()
	jr.slot = make([][]int32, n)
	jr.dupSlot = make([][]int32, n)
	for s := 0; s < n; s++ {
		tasks := job.Stages[s].Tasks
		jr.slot[s] = make([]int32, tasks)
		jr.dupSlot[s] = make([]int32, tasks)
	}
	jr.done = make([][]bool, n)
	jr.doneCount = make([]int, n)
	jr.remDeps = make([][]int, n)
	jr.baseRemDeps = make([][]int, n)
	jr.queuedAt = make([][]time.Duration, n)
	jr.attempts = make([][]int, n)
	jr.consumers = make([][][]taskRef, n)
	jr.driftFactor = make([]float64, n)
	for s := 0; s < n; s++ {
		tasks := job.Stages[s].Tasks
		jr.done[s] = make([]bool, tasks)
		jr.remDeps[s] = make([]int, tasks)
		jr.baseRemDeps[s] = make([]int, tasks)
		jr.queuedAt[s] = make([]time.Duration, tasks)
		jr.attempts[s] = make([]int, tasks)
		jr.consumers[s] = make([][]taskRef, tasks)
	}
	for s := 0; s < n; s++ {
		for _, edge := range job.Inputs(s) {
			for task := 0; task < job.Stages[s].Tasks; task++ {
				if edge.Kind == dag.AllToAll {
					jr.baseRemDeps[s][task]++
					continue
				}
				lo, hi := job.DepRange(edge, task)
				jr.baseRemDeps[s][task] += hi - lo
				for i := lo; i < hi; i++ {
					jr.consumers[edge.From][i] = append(jr.consumers[edge.From][i], taskRef{s, task})
				}
			}
		}
	}
	return jr
}

// prepare (re)sets the per-run state for one submission, leaving the arena
// allocations in place. The reseeded RNG stream is bit-identical to a fresh
// one, so a pooled arena replays exactly like a newly allocated jobRun.
// queuedAt deliberately keeps stale values: markReady writes an entry
// before any dispatch or trace read of it.
func (jr *jobRun) prepare(id int, cfg JobConfig, seed uint64) {
	jr.id = id
	jr.cfg = cfg
	jr.p = cfg.Profile
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
	jr.ready = jr.ready[:0]
	jr.readyHead = 0
	jr.tasksLeft = 0
	jr.guarHeap.s = jr.guarHeap.s[:0]
	jr.spareMax.s = jr.spareMax.s[:0]
	jr.spareMin.s = jr.spareMin.s[:0]
	jr.dupHeap.s = jr.dupHeap.s[:0]
	jr.liveRunning = 0
	jr.guarCount = 0
	for s := range jr.done {
		clear(jr.done[s])
		jr.doneCount[s] = 0
		copy(jr.remDeps[s], jr.baseRemDeps[s])
		clear(jr.attempts[s])
		jr.driftFactor[s] = 1
		jr.tasksLeft += jr.job.Stages[s].Tasks
		for t := range jr.slot[s] {
			jr.slot[s][t] = -1
			jr.dupSlot[s][t] = -1
		}
	}
	jr.stageP90 = jr.stageP90[:0]
	if cfg.SpeculativeThreshold > 0 {
		for s := 0; s < jr.job.NumStages(); s++ {
			jr.stageP90 = append(jr.stageP90, cfg.Profile.Stages[s].Exec.Quantile(0.9))
		}
	}
	jr.lastAllocAt = 0
	jr.allocSecs = 0
	jr.usedSecs = 0
	jr.spareDone = 0
	jr.guarDone = 0
	jr.evictions = 0
	jr.duplicates = 0
	jr.spareCredit = 0
	jr.rootDone = 0
	jr.localDone = 0
	jr.nextChange = 0
}

func (jr *jobRun) fracDone() []float64 {
	out := make([]float64, jr.job.NumStages())
	for s := range out {
		out[s] = float64(jr.doneCount[s]) / float64(jr.job.Stages[s].Tasks)
	}
	return out
}

func (jr *jobRun) state(now time.Duration) model.State {
	return model.State{Elapsed: now - jr.start, FracDone: jr.fracDone()}
}

//jockey:hotpath
func (jr *jobRun) readyLen() int { return len(jr.ready) - jr.readyHead }

//jockey:hotpath
func (jr *jobRun) popReady() (taskRef, bool) {
	if jr.readyHead >= len(jr.ready) {
		return taskRef{}, false
	}
	r := jr.ready[jr.readyHead]
	jr.readyHead++
	if jr.readyHead > 1024 && jr.readyHead*2 > len(jr.ready) {
		jr.ready = append(jr.ready[:0], jr.ready[jr.readyHead:]...)
		jr.readyHead = 0
	}
	return r, true
}

//jockey:hotpath
func (jr *jobRun) markReady(now time.Duration, stage, task int) {
	jr.queuedAt[stage][task] = now
	jr.ready = append(jr.ready, taskRef{stage, task})
}

func (jr *jobRun) setGuarantee(now time.Duration, g int) {
	if g < 0 {
		g = 0
	}
	jr.accrueAlloc(now)
	jr.guarantee = g
}

//jockey:hotpath
func (jr *jobRun) accrueAlloc(now time.Duration) {
	if !jr.arrived || jr.completed {
		return
	}
	dt := (now - jr.lastAllocAt).Seconds()
	if dt > 0 {
		jr.allocSecs += float64(jr.guarantee) * dt
		jr.usedSecs += float64(jr.liveRunning) * dt
	}
	jr.lastAllocAt = now
}

func (jr *jobRun) currentUtility() utility.Fn {
	return utility.Deadline(jr.deadline)
}
