package cluster

import (
	"fmt"
	"slices"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

type evKind uint8

const (
	evArrival evKind = iota
	evTaskEnd
	evControlTick
	evDeadlineChange
	evMachineFail
	evMachineRecover
	evStageDrift
	evRackOutage
	evContention
	evEpoch
)

// event is what the queue moves at every step of a push's or a pop's sift,
// so it is packed to 24 bytes (a queue item is 40): int32 identifiers,
// which Submit and Config validation guarantee fit, and one arg field,
// since no event kind needs both a machine and a change index.
type event struct {
	job     int32
	stage   int32
	task    int32
	attempt int32
	arg     int32 // machine (evMachineRecover), or index into DeadlineChanges, Drifts, or RackOutages
	kind    evKind
	failed  bool
}

// Run processes events until every tracked job has completed and every Hold
// has been released (or the event queue drains, or the next event lies
// beyond maxSimTime, which returns an error). It then drops
// Config.OnEpoch.
func (c *Cluster) Run() error {
	defer func() { c.cfg.OnEpoch = nil }()
	for c.tracked+c.holds > 0 {
		at, ev, ok := c.q.Pop()
		if !ok {
			return fmt.Errorf("cluster: event queue drained with %d tracked jobs unfinished and %d holds open (%s)",
				c.tracked, c.holds, c.unfinishedTracked())
		}
		if at > maxSimTime {
			return fmt.Errorf("cluster: exceeded max simulated time %v with %d tracked jobs unfinished (%s)",
				maxSimTime, c.tracked, c.unfinishedTracked())
		}
		c.accrueUtil(at)
		if at != c.now {
			c.now = at
			c.clockAdvanced()
		}
		switch ev.kind {
		case evArrival:
			c.handleArrival(int(ev.job))
		case evTaskEnd:
			c.handleTaskEnd(ev)
		case evControlTick:
			c.handleControlTick(int(ev.job))
		case evDeadlineChange:
			c.handleDeadlineChange(ev)
		case evMachineFail:
			c.handleMachineFail()
		case evMachineRecover:
			c.handleMachineRecover(int(ev.arg))
		case evStageDrift:
			c.handleStageDrift(ev)
		case evRackOutage:
			c.handleRackOutage(int(ev.arg))
		case evContention:
			// The factor itself changed when the clock reached the boundary
			// (clockAdvanced); this event only guarantees a pass there.
			c.reschedule()
		case evEpoch:
			c.handleEpoch()
		}
	}
	return nil
}

// handleEpoch runs the arbiter hook, keeps the epoch chain alive while the
// hook asks for it, and performs the scheduling pass that puts any guarantee
// changes (and same-time submissions) into effect.
func (c *Cluster) handleEpoch() {
	if c.cfg.OnEpoch == nil {
		return
	}
	if c.cfg.OnEpoch(c.now) {
		c.q.Push(c.now+c.cfg.EpochPeriod, event{kind: evEpoch})
	}
	c.reschedule()
}

// unfinishedTracked names the tracked jobs that have not completed, and the
// largest drift factor in force on each drifted one, for debuggable failure
// messages. A huge factor saturates service times (profile.MaxExec), so it
// surfaces here, as a job that cannot finish.
func (c *Cluster) unfinishedTracked() string {
	names := ""
	for _, jr := range c.jobs {
		if jr.cfg.Tracked && !jr.completed {
			if names != "" {
				names += ", "
			}
			names += jr.job.Name
			if jr.taskSet != nil {
				if f := slices.Max(jr.driftFactor); f != 1 {
					names += fmt.Sprintf(" at drift factor %g", f)
				}
			}
		}
	}
	return names
}

// accrueUtil folds the interval since the previous event into the
// utilization integral. The counts are maintained incrementally, so this is
// O(1) per event where it once scanned every job and machine.
//
//jockey:hotpath
func (c *Cluster) accrueUtil(now time.Duration) {
	dt := now - c.lastUtilTime
	if dt <= 0 {
		return
	}
	sec := dt.Seconds()
	c.busySecs += float64(c.totalRunning) * sec
	c.availSecs += float64(c.upCap) * sec
	c.lastUtilTime = now
}

func (c *Cluster) handleArrival(id int) {
	jr := c.jobs[id]
	c.arrive(jr)
	if jr.cfg.Tracked && (!jr.cfg.NoTrace || jr.cfg.Policy != nil) {
		// Traces outlive the run (results retain them), so they are always
		// freshly allocated, never pooled. Every task ends at least once.
		jr.result.Trace = trace.New(jr.job.Name, jr.job.NumStages())
		if !jr.cfg.NoTrace {
			jr.result.Trace.Events = make([]trace.TaskEvent, 0, jr.job.TotalTasks())
		}
	}
	jr.deps.Seed(c.now)
	c.syncReady(jr)
	if jr.cfg.Policy != nil {
		c.controlDecision(jr)
		c.q.Push(c.now+jr.cfg.ControlPeriod, event{kind: evControlTick, job: int32(id)})
	}
	for i, dc := range jr.cfg.DeadlineChanges {
		c.q.Push(jr.start+dc.At, event{kind: evDeadlineChange, job: int32(id), arg: int32(i)})
	}
	for i, d := range jr.cfg.Drifts {
		if d.At == 0 {
			// A drift at the very start must cover the arrival dispatch too.
			c.applyDrift(jr, i)
			continue
		}
		c.q.Push(jr.start+d.At, event{kind: evStageDrift, job: int32(id), arg: int32(i)})
	}
	c.reschedule()
}

func (c *Cluster) handleStageDrift(ev event) {
	jr := c.jobs[ev.job]
	if jr.completed {
		return
	}
	c.applyDrift(jr, int(ev.arg))
}

// applyDrift folds one StageDrift into the job's runtime factors.
// Already-running attempts keep their sampled durations; only attempts
// dispatched from now on see the drift.
//
//jockey:hotpath
func (c *Cluster) applyDrift(jr *jobRun, idx int) {
	d := jr.cfg.Drifts[idx]
	if d.Stage < 0 {
		for s := range jr.driftFactor {
			jr.driftFactor[s] *= d.Factor
		}
	} else {
		jr.driftFactor[d.Stage] *= d.Factor
	}
}

func (c *Cluster) handleRackOutage(idx int) {
	r := c.cfg.RackOutages[idx]
	until := c.now + r.Duration
	for mi := r.FirstMachine; mi < r.FirstMachine+r.Machines; mi++ {
		if c.upBits.get(mi) {
			c.killMachine(mi)
		}
		// An already-down machine (MTBF failure or overlapping rack) just has
		// its downtime extended; its earlier recover event goes stale.
		if until > c.mDown[mi] {
			c.mDown[mi] = until
			c.q.Push(until, event{kind: evMachineRecover, arg: int32(mi)})
		}
	}
	c.reschedule()
}

// contentionFrac returns the guarantee-scaling factor in force now (1 when
// no contention window is open; overlapping windows take the tightest).
//
//jockey:hotpath
func (c *Cluster) contentionFrac() float64 {
	f := 1.0
	for _, w := range c.cfg.Contention {
		if c.now >= w.From && c.now < w.To && w.Frac < f {
			f = w.Frac
		}
	}
	return f
}

// clockAdvanced re-derives the contention factor whenever the clock moves.
// The factor is a function of the clock alone, so an event popped at a
// window boundary ahead of that boundary's own event already sees the new
// factor; a change marks every live job dirty, because it moves every
// job's effective guarantee. Only contention windows change the factor, so
// the walk over every submitted job runs at their boundaries alone.
//
//jockey:hotpath
func (c *Cluster) clockAdvanced() {
	if len(c.cfg.Contention) == 0 {
		return
	}
	f := c.contentionFrac()
	if f == c.frac {
		return
	}
	c.frac = f
	for _, jr := range c.jobs {
		if jr.arrived && !jr.completed {
			c.markDirty(jr)
		}
	}
}

// effectiveGuarantee returns how many guaranteed tokens the scheduler
// actually honors for the job right now. Allocation accounting still charges
// the nominal guarantee: during contention the job pays for a promise the
// cluster breaks.
//
//jockey:hotpath
func (c *Cluster) effectiveGuarantee(jr *jobRun) int {
	if c.frac >= 1 {
		return jr.guarantee
	}
	return int(float64(jr.guarantee) * c.frac)
}

// markDirty queues the job for the next reclassify. The dirty set is an
// intrusive stack through jobRun, so marking never allocates; the order
// jobs are repaired in does not matter, since each repair touches only its
// own job's classes.
//
//jockey:hotpath
func (c *Cluster) markDirty(jr *jobRun) {
	if jr.dirty {
		return
	}
	jr.dirty = true
	jr.dirtyNext = c.dirty
	c.dirty = jr
}

// setGuarantee re-sets a job's nominal guarantee, accruing allocation at
// the old one up to now, and queues the job for reclassification.
func (c *Cluster) setGuarantee(jr *jobRun, g int) {
	if g < 0 {
		g = 0
	}
	jr.accrueAlloc(c.now)
	jr.guarantee = g
	c.markDirty(jr)
}

func (c *Cluster) handleControlTick(id int) {
	jr := c.jobs[id]
	if jr.completed {
		return
	}
	c.controlDecision(jr)
	c.q.Push(c.now+jr.cfg.ControlPeriod, event{kind: evControlTick, job: int32(id)})
	c.reschedule()
}

func (c *Cluster) controlDecision(jr *jobRun) {
	st := jr.state(c.now)
	d := jr.cfg.Policy.Decide(st)
	c.setGuarantee(jr, d.Granted)
	if jr.result.Trace != nil {
		oracle := model.Oracle(jr.p.TotalWork(), jr.deadline)
		jr.result.Trace.AddAlloc(trace.AllocPoint{
			T:         c.now - jr.start,
			Raw:       d.Raw,
			Granted:   d.Granted,
			Running:   jr.liveRunning,
			Oracle:    oracle,
			Progress:  d.Progress,
			Predicted: d.Predicted,
			Mode:      d.Mode,
			Deviation: d.Deviation,
		})
	}
}

func (c *Cluster) handleDeadlineChange(ev event) {
	jr := c.jobs[ev.job]
	if jr.completed {
		return
	}
	dc := jr.cfg.DeadlineChanges[ev.arg]
	jr.deadline = dc.Deadline
	if jr.cfg.Policy != nil {
		jr.cfg.Policy.ChangeUtility(utility.Deadline(dc.Deadline))
		// React immediately rather than waiting for the next tick.
		c.controlDecision(jr)
	}
	c.reschedule()
}

func (c *Cluster) handleTaskEnd(ev event) {
	jr := c.jobs[ev.job]
	if jr.completed {
		// A completed job has no running attempt, so the event is stale, and
		// the job's task set has gone back to the engine.
		return
	}
	st := &c.store
	stage, task := int(ev.stage), int(ev.task)
	s := jr.slot[jr.deps.Index(stage, task)]
	if s < 0 || st.attempt[s] != ev.attempt {
		return // stale event: the attempt was evicted or killed
	}
	jr.accrueAlloc(c.now)
	spawnedGuar := st.flags[s]&flagSpawnGuar != 0
	c.detach(jr, s)
	c.recordAttempt(jr, s, c.now, ev.failed)
	if ev.failed {
		st.release(s)
		c.requeue(jr, stage, task)
		c.reschedule()
		return
	}
	if spawnedGuar {
		jr.guarDone++
	} else {
		jr.spareDone++
	}
	st.release(s)
	jr.deps.Complete(c.now, stage, task)
	c.syncReady(jr)
	if jr.deps.Left() == 0 {
		c.completeJob(jr)
	}
	c.reschedule()
}

// recordAttempt adds an attempt that just ended to the job's work and emits
// its trace/callback record. The slot is still readable (detached but not
// yet released).
func (c *Cluster) recordAttempt(jr *jobRun, s int32, ended time.Duration, failed bool) {
	st := &c.store
	started := min(st.execStart[s], ended) // killed during its init delay
	jr.work += ended - started
	record := jr.result.Trace != nil && !jr.cfg.NoTrace
	if !record && jr.cfg.OnTaskEvent == nil {
		return
	}
	stage, task := int(st.stage[s]), int(st.task[s])
	e := trace.TaskEvent{
		Stage:      stage,
		Task:       task,
		Attempt:    int(st.attempt[s]),
		Queued:     jr.deps.QueuedAt(stage, task) - jr.start,
		Dispatched: st.startedAt[s] - jr.start,
		Started:    started - jr.start,
		Ended:      ended - jr.start,
		Failed:     failed,
	}
	if record {
		jr.result.Trace.AddTask(e)
	}
	if jr.cfg.OnTaskEvent != nil {
		jr.cfg.OnTaskEvent(e)
	}
}

// cmpLive is the live order: tracked jobs before untracked ones, each in
// job-id (submission) order. The ready index is kept in this order, so
// walking it serves SLO jobs first.
//
//jockey:hotpath
func cmpLive(a, b *jobRun) int {
	if a.cfg.Tracked != b.cfg.Tracked {
		if a.cfg.Tracked {
			return -1
		}
		return 1
	}
	return a.id - b.id // ids are small and non-negative
}

// insertLive inserts jr at its place in list, which is in live order.
func insertLive(list []*jobRun, jr *jobRun) []*jobRun {
	i, _ := slices.BinarySearchFunc(list, jr, cmpLive)
	return slices.Insert(list, i, jr)
}

// removeLive deletes jr, which list must hold, from list, which is in live
// order.
//
//jockey:hotpath
func removeLive(list []*jobRun, jr *jobRun) []*jobRun {
	i, _ := slices.BinarySearchFunc(list, jr, cmpLive)
	return slices.Delete(list, i, i+1)
}

// syncReady restores the job's ready-index membership after its ready
// queue changed: the index holds exactly the live jobs with ready work, so
// only a change between empty and non-empty edits it. It is small enough to
// inline, since most calls find nothing to do.
//
//jockey:hotpath
func (c *Cluster) syncReady(jr *jobRun) {
	if (jr.deps.Len() > 0) != jr.inReady {
		c.toggleReady(jr)
	}
}

// toggleReady inserts the job into the ready index or removes it, and with
// it into or out of the owed set. arrive reserved room for every live job,
// so an insert never grows the index.
//
//jockey:hotpath
func (c *Cluster) toggleReady(jr *jobRun) {
	jr.inReady = !jr.inReady
	if jr.inReady {
		c.ready = insertLive(c.ready, jr)
	} else {
		c.ready = removeLive(c.ready, jr)
	}
	c.syncOwed(jr)
}

// owed reports whether the job belongs in the owed set: it has ready work
// and its guaranteed class is smaller than its effective guarantee.
//
//jockey:hotpath
func (c *Cluster) owed(jr *jobRun) bool {
	return jr.inReady && jr.guarCount < c.effectiveGuarantee(jr)
}

// syncOwed restores the job's owed-set membership. Only toggleReady and
// reclassify call it: every other change to the job's guaranteed class or
// effective guarantee (detach, startTask, setGuarantee, clockAdvanced)
// marks the job dirty, and reclassify repairs it before the next pass.
//
//jockey:hotpath
func (c *Cluster) syncOwed(jr *jobRun) {
	set := &c.owedUntracked
	if jr.cfg.Tracked {
		set = &c.owedTracked
	}
	if c.owed(jr) {
		set.set(jr.id)
	} else {
		set.clear(jr.id)
	}
}

// requeue counts a task's ended attempt and puts it back on its job's ready
// queue.
//
//jockey:hotpath
func (c *Cluster) requeue(jr *jobRun, stage, task int) {
	jr.deps.Requeue(c.now, stage, task)
	c.syncReady(jr)
}

func (c *Cluster) completeJob(jr *jobRun) {
	jr.accrueAlloc(c.now)
	jr.completed = true
	// No tick, deadline change or task event reaches a completed job, so
	// release its policy and callback now rather than at the engine's next
	// Reset: an idle engine would otherwise pin every guard, controller and
	// predictor of the last replay. Its task set goes back to the engine
	// too, for the next job of its plan to arrive.
	jr.cfg.Policy = nil
	jr.cfg.OnTaskEvent = nil
	c.release(jr)
	c.setGuarantee(jr, 0)
	completion := c.now - jr.start
	if jr.result.Trace != nil {
		jr.result.Trace.Completion = completion
	}
	oracle := model.Oracle(jr.work, jr.deadline)
	done := jr.guarDone + jr.spareDone
	spareFrac := 0.0
	if done > 0 {
		spareFrac = float64(jr.spareDone) / float64(done)
	}
	jr.result = Result{
		Name:               jr.job.Name,
		Start:              jr.start,
		Completion:         completion,
		Deadline:           jr.deadline,
		Met:                jr.deadline == 0 || completion <= jr.deadline,
		Oracle:             oracle,
		AllocTokenSeconds:  jr.allocSecs,
		OracleTokenSeconds: float64(oracle) * jr.deadline.Seconds(),
		SpareTaskFraction:  spareFrac,
		Evictions:          jr.evictions,
		Trace:              jr.result.Trace,
	}
	if jr.cfg.Tracked {
		c.tracked--
	}
}

func (c *Cluster) handleMachineFail() {
	// Pick a random up machine (the k-th set bit of the up set is the k-th
	// up machine in index order, reproducing the retired slice build without
	// its per-failure allocation); if none, just schedule the next failure.
	if c.upCount > 0 {
		mi := c.upBits.selectK(c.rng.IntN(c.upCount))
		c.killMachine(mi)
		rec := c.cfg.MachineRecovery.Sample(c.rng)
		if c.now+rec > c.mDown[mi] {
			c.mDown[mi] = c.now + rec
		}
		c.q.Push(c.now+rec, event{kind: evMachineRecover, arg: int32(mi)})
	}
	c.scheduleNextMachineFailure()
	c.reschedule()
}

func (c *Cluster) killMachine(mi int) {
	c.upBits.clear(mi)
	c.availBits.clear(mi)
	c.upCount--
	c.upCap -= c.cfg.SlotsPerMachine
	st := &c.store
	victims := c.scratchSlots[:0]
	for s := c.mHead[mi]; s >= 0; s = st.nextM[s] {
		victims = append(victims, s)
	}
	// Evict in (job, start time, stage, task) order — job submission order,
	// then the per-job total order — matching the retired per-job map walk
	// plus sort. Victim counts are bounded by the machine's slots, so an
	// insertion sort is both allocation-free and fast.
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && c.victimLess(victims[j], victims[j-1]); j-- {
			victims[j], victims[j-1] = victims[j-1], victims[j]
		}
	}
	for _, s := range victims {
		c.evictTask(c.jobs[st.job[s]], s)
	}
	c.scratchSlots = victims
	c.mUsed[mi] = 0
}

//jockey:hotpath
func (c *Cluster) victimLess(a, b int32) bool {
	if c.store.job[a] != c.store.job[b] {
		return c.store.job[a] < c.store.job[b]
	}
	return c.store.less(a, b)
}

// detach removes an attempt from every index that tracks it — the slot
// table, its job list (moving the guaranteed boundary back when it removes
// the boundary attempt), the spare-top heap, the machine task list, the
// machine's used count, and the running totals — leaving the slot readable
// until released. Detaching changes the job's running count, so the job is
// queued for reclassification.
//
//jockey:hotpath
func (c *Cluster) detach(jr *jobRun, s int32) {
	st := &c.store
	jr.slot[jr.deps.Index(int(st.stage[s]), int(st.task[s]))] = -1
	if st.flags[s]&flagGuar != 0 {
		jr.guarCount--
		if s == jr.guarLast {
			jr.guarLast = st.prevJ[s]
		}
	}
	st.unlink(&jr.prim, s)
	jr.liveRunning--
	c.totalRunning--
	c.markDirty(jr)
	c.refreshTop(jr)
	mi := int(st.machine[s])
	if prev := st.prevM[s]; prev >= 0 {
		st.nextM[prev] = st.nextM[s]
	} else {
		c.mHead[mi] = st.nextM[s]
	}
	if next := st.nextM[s]; next >= 0 {
		st.prevM[next] = st.prevM[s]
	}
	c.mUsed[mi]--
	if c.upBits.get(mi) {
		c.availBits.set(mi) // a slot just freed on an up machine
	}
}

// attachMachine links a freshly dispatched attempt into its machine's task
// list and claims the slot token.
//
//jockey:hotpath
func (c *Cluster) attachMachine(mi int, s int32) {
	st := &c.store
	st.prevM[s] = -1
	st.nextM[s] = c.mHead[mi]
	if head := c.mHead[mi]; head >= 0 {
		st.prevM[head] = s
	}
	c.mHead[mi] = s
	c.mUsed[mi]++
	if int(c.mUsed[mi]) >= c.cfg.SlotsPerMachine {
		c.availBits.clear(mi)
	}
}

// evictTask kills a running task attempt: its work is lost, the pending end
// event becomes stale, and the task re-queues.
func (c *Cluster) evictTask(jr *jobRun, s int32) {
	jr.accrueAlloc(c.now)
	st := &c.store
	stage, task := int(st.stage[s]), int(st.task[s])
	jr.evictions++
	c.detach(jr, s)
	c.recordAttempt(jr, s, c.now, true)
	st.release(s)
	c.requeue(jr, stage, task)
}

func (c *Cluster) handleMachineRecover(mi int) {
	if c.now < c.mDown[mi] {
		return // stale: an overlapping outage extended this machine's downtime
	}
	if !c.upBits.get(mi) {
		c.upBits.set(mi)
		c.upCount++
		c.upCap += c.cfg.SlotsPerMachine
		if int(c.mUsed[mi]) < c.cfg.SlotsPerMachine {
			c.availBits.set(mi)
		}
	}
	c.reschedule()
}

func (c *Cluster) scheduleNextMachineFailure() {
	mean := c.cfg.MachineMTBF.Seconds() / float64(len(c.mUsed))
	gap := time.Duration(c.rng.ExpFloat64() * mean * float64(time.Second))
	if gap <= 0 {
		gap = time.Second
	}
	c.q.Push(c.now+gap, event{kind: evMachineFail})
}

// replicas is the number of machines holding each input partition of a root
// (extract) stage in the distributed file system, like GFS/HDFS/Cosmos. Root
// tasks prefer these machines; running there co-locates storage and
// computation ("locality", §2.1/§3.1).
const replicas = 3

// replicaMachines returns the machines holding the input partition of a
// root-stage task, derived deterministically from the job and task
// identity (the DFS placement).
func (c *Cluster) replicaMachines(jr *jobRun, stage, task int) []int {
	if len(jr.job.Inputs(stage)) > 0 {
		return nil // only root stages read DFS partitions directly
	}
	n := len(c.mUsed)
	h := stats.DeriveSeedInt(uint64(jr.id)<<32|uint64(stage), task)
	out := c.scratchReplicas[:0]
	stride := 1
	if n > 1 {
		stride = 1 + int((h>>40)%uint64(n-1))
	}
	first := int(h % uint64(n))
	for i := 0; i < replicas && i < n; i++ {
		out = append(out, (first+i*stride)%n)
	}
	c.scratchReplicas = out
	return out
}

// freeMachineFor returns a machine with a free slot for the given task,
// preferring machines holding the task's input replicas (only a root task
// has them), or -1 if the cluster is full.
//
//jockey:hotpath
func (c *Cluster) freeMachineFor(jr *jobRun, stage, task int) int {
	for _, mi := range c.replicaMachines(jr, stage, task) {
		if c.availBits.get(mi) {
			return mi
		}
	}
	return c.freeMachine()
}

// freeMachine returns the lowest-indexed machine with a free slot, or -1.
// availBits indexes exactly the up machines with spare slots, so this is a
// bitmap scan instead of the full-cluster walk of earlier engines.
//
//jockey:hotpath
func (c *Cluster) freeMachine() int {
	return c.availBits.first()
}

// reschedule enforces the token-sharing policy: reclassify running tasks,
// satisfy guaranteed demand (evicting spare tasks when necessary), then
// hand out spare capacity round-robin.
func (c *Cluster) reschedule() {
	c.reclassify()
	if checkPass != nil {
		checkPass(c)
	}
	c.dispatchGuaranteed()
	c.dispatchSpare()
}

// checkPass, set only by tests, runs after every reclassify; the tests diff
// the incremental state against the retired full walks
// (engine_ref_test.go).
var checkPass func(c *Cluster)

// reclassify restores, per job, the invariant that the guaranteed class is
// exactly the job's min(effectiveGuarantee(), running) earliest-started
// attempts (by the taskStore.less total order) and everything else is
// spare. Only jobs in the dirty set are visited: the invariant can only
// break where an attempt started or ended, the guarantee was re-set, or the
// contention factor moved, and each of those marks the job. The job's
// attempts are listed in less order with the guaranteed class a prefix of
// the list, so the repair moves the boundary one attempt at a time: back,
// unflagging the latest-started guaranteed attempt, while the class is too
// big; forward, flagging the earliest-started spare, while it is too small.
//
//jockey:hotpath
func (c *Cluster) reclassify() {
	st := &c.store
	for c.dirty != nil {
		jr := c.dirty
		c.dirty = jr.dirtyNext
		jr.dirtyNext = nil
		jr.dirty = false
		target := min(c.effectiveGuarantee(jr), jr.liveRunning)
		for jr.guarCount > target {
			st.flags[jr.guarLast] &^= flagGuar
			jr.guarLast = st.prevJ[jr.guarLast]
			jr.guarCount--
		}
		for jr.guarCount < target {
			next := jr.prim.head
			if jr.guarLast >= 0 {
				next = st.nextJ[jr.guarLast]
			}
			st.flags[next] |= flagGuar
			jr.guarLast = next
			jr.guarCount++
		}
		c.refreshTop(jr)
		c.syncOwed(jr)
	}
}

// dispatchGuaranteed starts ready tasks on guaranteed tokens. It walks the
// owed set — the tracked ids, then the untracked ones, each ascending —
// which is the ready index's live order less the jobs whose guaranteed
// class is already whole, so SLO jobs are served first: admission control
// promised them their guarantees, so they win when guarantees are
// over-subscribed. On a full cluster nearly every ready job is such a job,
// and the pass costs the jobs it can serve, not every job with ready work.
//
// An eviction inside the pass never makes its victim owed, so the walk
// cannot miss a job the ready walk would have served. The victim ran a
// spare attempt, so after reclassify its guaranteed class held its whole
// effective guarantee; the evicted attempt was spare, so the class stays
// whole, and debug builds assert so. The victim's requeued task waits for
// dispatchSpare or the next pass.
//
// A task leaves its job's ready FIFO only once a free slot or a victim is
// found. When there is neither, the pass ends and the task stays at the
// head of the FIFO with the queued time it entered with: that time is the
// Q_s the totalworkWithQ indicator is built on (§4.2), and keeping it makes
// a pass that places nothing a no-op, so a run does not depend on how many
// passes it holds.
//
// Serving a job starts attempts that the set learns of at the next
// reclassify, and can clear the job's bit when its ready work runs out; the
// next-set-bit cursor has moved past the job either way, so the pass visits
// each owed job once. A full cluster (every up slot running) has no free
// machine, so the pass goes straight to the eviction pick without deriving
// the task's replicas.
//
//jockey:hotpath
func (c *Cluster) dispatchGuaranteed() {
	for _, set := range [2]*bitset{&c.owedTracked, &c.owedUntracked} {
		for id := set.next(0); id >= 0; id = set.next(id + 1) {
			jr := c.jobs[id]
			eff := c.effectiveGuarantee(jr)
			for jr.guarCount < eff && jr.deps.Len() > 0 {
				r, _ := jr.deps.Peek()
				mi := -1
				if c.totalRunning < c.upCap {
					mi = c.freeMachineFor(jr, r.Stage, r.Task)
				}
				if mi < 0 {
					vs, vjob := c.youngestSpare()
					if vs < 0 {
						// Every slot is running guaranteed work. The task
						// stays at the head of its FIFO with its queued
						// time, so a pass that places nothing changes
						// nothing.
						return
					}
					mi = int(c.store.machine[vs])
					c.evictTask(vjob, vs)
					if invariant.Debug {
						c.assertNotOwed(vjob)
					}
				}
				jr.deps.Pop()
				c.syncReady(jr)
				c.startTask(jr, r, mi, true)
			}
		}
	}
}

// assertNotOwed checks that an eviction inside dispatchGuaranteed left its
// victim's guaranteed class whole. It boxes the Assertf arguments only on
// failure, so the allocation guards hold in debug builds too.
func (c *Cluster) assertNotOwed(victim *jobRun) {
	if c.owed(victim) {
		invariant.Assertf(false, "cluster: evicting job %d's spare attempt at t=%v left it owed (%d of %d guaranteed)",
			victim.id, c.now, victim.guarCount, c.effectiveGuarantee(victim))
	}
}

// youngestSpare returns the most recently started spare task in the
// cluster — the cheapest one to evict — and its job: the root of the
// spare-top heap.
//
//jockey:hotpath
func (c *Cluster) youngestSpare() (int32, *jobRun) {
	if len(c.spareTops) == 0 {
		return -1, nil
	}
	jr := c.spareTops[0]
	return jr.spareTop, jr
}

// refreshTop re-derives the job's spare top — its latest-started spare
// attempt: the tail of its attempt list when that is spare — and re-seats
// the job in the cluster's spare-top heap when it changed. detach calls it
// eagerly, since an eviction inside dispatchGuaranteed must be seen by the
// next pick and a released slot must not stay a heap key. A start
// (startTask) only marks its job dirty, and reclassify refreshes it before
// the next pass's first pick; until then the heap is ordered by the job's
// older top, a live attempt whose key does not change.
//
//jockey:hotpath
func (c *Cluster) refreshTop(jr *jobRun) {
	st := &c.store
	top := jr.prim.tail
	if top >= 0 && st.flags[top]&flagGuar != 0 {
		top = -1
	}
	old := jr.spareTop
	if top == old {
		return
	}
	jr.spareTop = top
	switch {
	case top < 0:
		c.topRemove(jr)
	case old < 0:
		c.spareTops = append(c.spareTops, jr)
		i := len(c.spareTops) - 1
		jr.topPos = int32(i)
		c.topUp(i)
	case st.less(old, top):
		c.topUp(int(jr.topPos))
	default:
		c.topDown(int(jr.topPos))
	}
}

// topAbove orders the spare-top max-heap: the later-started top first, and
// on a tie across jobs the lower job id, which is the pick of the retired
// strict-less scan over jobs in id order.
//
//jockey:hotpath
func (c *Cluster) topAbove(a, b *jobRun) bool {
	st := &c.store
	if st.less(b.spareTop, a.spareTop) {
		return true
	}
	return !st.less(a.spareTop, b.spareTop) && a.id < b.id
}

//jockey:hotpath
func (c *Cluster) topSwap(i, j int) {
	h := c.spareTops
	h[i], h[j] = h[j], h[i]
	h[i].topPos = int32(i)
	h[j].topPos = int32(j)
}

//jockey:hotpath
func (c *Cluster) topUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.topAbove(c.spareTops[i], c.spareTops[parent]) {
			return
		}
		c.topSwap(i, parent)
		i = parent
	}
}

// topDown sifts index i toward the leaves, reporting whether it moved.
//
//jockey:hotpath
func (c *Cluster) topDown(i int) bool {
	h := c.spareTops
	n := len(h)
	moved := false
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		big := left
		if right := left + 1; right < n && c.topAbove(h[right], h[left]) {
			big = right
		}
		if !c.topAbove(h[big], h[i]) {
			return moved
		}
		c.topSwap(i, big)
		i = big
		moved = true
	}
}

//jockey:hotpath
func (c *Cluster) topRemove(jr *jobRun) {
	i := int(jr.topPos)
	jr.topPos = -1
	n := len(c.spareTops) - 1
	last := c.spareTops[n]
	c.spareTops[n] = nil
	c.spareTops = c.spareTops[:n]
	if i == n {
		return
	}
	c.spareTops[i] = last
	last.topPos = int32(i)
	if !c.topDown(i) {
		c.topUp(i)
	}
}

// dispatchSpare hands free slots to jobs with pending work by smooth
// weighted round-robin: each eligible job accrues credit proportional to
// its weight, the highest-credit job gets the slot, and its credit is
// charged the total weight. Over time a job receives spare slots in
// proportion to its weight (the cluster's weighted fair sharing). The
// eligible jobs are the ready index less the NoSpare jobs, so a pick costs
// the jobs that have ready work, not every live job. Credits are sums of
// integer weights, which float64 holds exactly, and credit ties go to the
// lower job id, so the pick does not depend on the order the jobs are
// walked in.
func (c *Cluster) dispatchSpare() {
	if len(c.ready) == 0 {
		return
	}
	idle := 0
	for {
		mi := c.freeMachine()
		if mi < 0 {
			return
		}
		var pick *jobRun
		totalWeight := 0.0
		for _, jr := range c.ready {
			if jr.cfg.NoSpare {
				continue
			}
			totalWeight += float64(jr.cfg.Weight)
			jr.spareCredit += float64(jr.cfg.Weight)
			if pick == nil || jr.spareCredit > pick.spareCredit ||
				(jr.spareCredit == pick.spareCredit && jr.id < pick.id) {
				pick = jr
			}
		}
		if pick == nil {
			return // only NoSpare jobs have ready work
		}
		pick.spareCredit -= totalWeight
		r, _ := pick.deps.Pop()
		c.syncReady(pick)
		mi = c.freeMachineFor(pick, r.Stage, r.Task)
		c.startTask(pick, r, mi, false)
		idle++
		if idle > 1<<20 { // guard the Assertf so its args only box on failure
			invariant.Assertf(false, "cluster: spare dispatch runaway at t=%v (machine %d)", c.now, mi)
		}
	}
}

//jockey:hotpath
func (c *Cluster) startTask(jr *jobRun, r dag.TaskRef, machine int, guaranteed bool) {
	jr.accrueAlloc(c.now)
	attempt := jr.deps.Attempt(r.Stage, r.Task)
	initDelay, exec, fails := jr.p.Stages[r.Stage].SampleAttempt(jr.rng, jr.driftFactor[r.Stage],
		attempt < profile.MaxAttempts-1)
	st := &c.store
	s := st.alloc()
	st.job[s] = int32(jr.id)
	st.stage[s] = int32(r.Stage)
	st.task[s] = int32(r.Task)
	st.attempt[s] = int32(attempt)
	st.machine[s] = int32(machine)
	st.startedAt[s] = c.now
	st.execStart[s] = c.now + initDelay
	st.flags[s] = 0
	if guaranteed {
		st.flags[s] = flagGuar | flagSpawnGuar
	}
	jr.slot[jr.deps.Index(r.Stage, r.Task)] = s
	st.link(&jr.prim, s)
	if guaranteed {
		// dispatchGuaranteed starts work only while the guaranteed class is
		// smaller than the guarantee, which after reclassify means it holds
		// every running attempt; so the class grows to the whole list.
		jr.guarCount++
		jr.guarLast = jr.prim.tail
	} else if g := jr.guarLast; g >= 0 && st.less(s, g) {
		// A guaranteed attempt started at this same instant sorts after s.
		// Hand the boundary attempt's flag to s, so the guaranteed class
		// stays a prefix; the next reclassify settles the rank partition.
		st.flags[s] |= flagGuar
		st.flags[g] &^= flagGuar
		jr.guarLast = st.prevJ[g]
	}
	jr.liveRunning++
	c.totalRunning++
	c.markDirty(jr) // reclassify repairs its classes and spare top
	c.attachMachine(machine, s)
	c.q.Push(c.now+initDelay+exec, event{
		kind:    evTaskEnd,
		job:     st.job[s],
		stage:   st.stage[s],
		task:    st.task[s],
		attempt: st.attempt[s],
		failed:  fails,
	})
}
