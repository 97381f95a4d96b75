// Package fleet is the multi-job arbiter layer (paper §5): a deterministic
// replay that admits a stream of recurring SLO jobs onto one simulated
// cluster, runs a Jockey controller (optionally guard-wrapped) per admitted
// job, and once per control epoch re-divides the global guaranteed-token
// budget across the fleet by greedy marginal-utility water-filling.
//
// Robustness is the design center. Under overload the arbiter defers
// admissions with bounded exponential backoff and rejects jobs it can no
// longer serve, instead of overcommitting everyone into missing. Under a
// rack outage the effective budget shrinks to live capacity and the
// water-fill squeezes the lowest-marginal-utility jobs first. When one
// job's guard panics (model staleness + deadline at risk), containment caps
// its panic grant at its admission reservation so a single sick job cannot
// starve feasible peers.
//
// Everything is bit-identical at any parallelism: randomness derives from
// Config.Seed via stats.DeriveSeed, models come from a shape-keyed
// ModelCache whose outputs do not depend on which caller warmed them, and
// the replay itself is single-threaded inside the cluster's event loop.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/eventq"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
)

// Arbitration selects how the epoch re-division of the token budget works.
type Arbitration string

const (
	// FIFO is the static baseline: admit in arrival order while the
	// reservations fit, reject otherwise, never revisit a grant.
	FIFO Arbitration = "fifo"
	// FairShare splits the effective budget equally across admitted jobs
	// every epoch, ignoring deadlines and utility.
	FairShare Arbitration = "fair-share"
	// UtilityGreedy water-fills the effective budget by marginal
	// model-estimated deadline utility, clamping flat jobs to their floor.
	UtilityGreedy Arbitration = "utility-greedy"
)

// Arbitrations lists the supported disciplines in comparison order.
var Arbitrations = []Arbitration{FIFO, FairShare, UtilityGreedy}

// The replay's fixed settings.
const (
	// epoch is the arbitration cadence: the paper's control interval.
	epoch = time.Minute
	// maxDefers bounds how many times one admission may be deferred before
	// it is rejected outright (FIFO never defers).
	maxDefers = 8
	// driftFactor inflates a drifting job's ground-truth service times.
	driftFactor = 2
)

// Config parameterizes one fleet replay.
type Config struct {
	// Seed drives every random draw of the replay (arrival stream, cluster
	// dynamics; model randomness comes from the ModelCache's own seed).
	Seed uint64
	// Machines and SlotsPerMachine size the cluster (default 20 × 5).
	Machines        int
	SlotsPerMachine int
	// Budget is the guaranteed-token budget the arbiter divides (default:
	// full cluster capacity). The effective budget each epoch is
	// min(Budget, live capacity), so outages shrink it.
	Budget int
	// Arrivals is how many SLO jobs are offered (default 12).
	Arrivals int
	// MeanInterarrival is the mean gap between offers at load factor 1
	// (default 4 minutes).
	MeanInterarrival time.Duration
	// LoadFactor compresses the arrival process: 2 means jobs arrive twice
	// as fast as the cluster was sized for (default 1).
	LoadFactor float64
	// Arbitration picks the discipline (default UtilityGreedy).
	Arbitration Arbitration
	// Guarded wraps each job's controller in control.Guard. Only valid
	// with UtilityGreedy.
	Guarded bool
	// RackOutages forwards correlated failures to the cluster.
	RackOutages []cluster.RackOutage
	// DriftEvery marks every Nth arrival to drift mid-run (ground truth
	// service times inflate by driftFactor); 0 disables drift, negative is an
	// error.
	DriftEvery int
	// Models supplies shared per-shape profiles and C(p, a) models. Nil
	// builds a private cache from DeriveSeed(Seed, "fleet-models").
	Models *ModelCache
	// Engine, when set, reuses pooled simulation arenas across replays.
	// Pooled and fresh replays are bit-identical.
	Engine *cluster.Engine
	// OnEpoch, if set, observes every arbitration epoch (jockeyd -v).
	OnEpoch func(EpochStats)

	// checkFill, set only by tests, is called before every epoch's
	// water-fill and returns a check to run after it; the tests diff the
	// heap rounds against the retired reference scan (arbiter_ref_test.go).
	// Nil in production: the check costs an extra full scan per epoch.
	checkFill func(r *replay, budget int) (after func())
}

// EpochStats is the per-epoch observer record.
type EpochStats struct {
	// At is the epoch time on the cluster clock.
	At time.Duration
	// Active, Deferred and Rejected count jobs in each admission state
	// (Rejected is cumulative).
	Active, Deferred, Rejected int
	// Budget is the epoch's effective budget; Granted sums the grants.
	Budget, Granted int
	// Latched counts jobs currently held at their guard-panic grant.
	Latched int
	// Bidders counts the non-latched jobs that bid in this epoch's
	// water-fill; HeapOps counts the marginal-utility heap operations
	// (pushes, pops, re-seats) the greedy rounds took. Together they are
	// the arbiter's epoch cost: HeapOps staying near-linear in Bidders is
	// the fleet-scale contract (both are 0 outside utility-greedy).
	Bidders, HeapOps int
}

func (c *Config) fill() error {
	if c.Machines == 0 {
		c.Machines = 20
	}
	if c.SlotsPerMachine == 0 {
		c.SlotsPerMachine = 5
	}
	if c.Budget == 0 {
		c.Budget = c.Machines * c.SlotsPerMachine
	}
	if c.Budget < 1 {
		return fmt.Errorf("fleet: budget %d must be positive", c.Budget)
	}
	if c.Arrivals == 0 {
		c.Arrivals = 12
	}
	if c.Arrivals < 1 {
		return fmt.Errorf("fleet: need at least one arrival, got %d", c.Arrivals)
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 4 * time.Minute
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1
	}
	if !(c.LoadFactor > 0) || math.IsInf(c.LoadFactor, 1) {
		return fmt.Errorf("fleet: load factor %v must be positive and finite", c.LoadFactor)
	}
	if c.Arbitration == "" {
		c.Arbitration = UtilityGreedy
	}
	switch c.Arbitration {
	case FIFO, FairShare, UtilityGreedy:
	default:
		return fmt.Errorf("fleet: unknown arbitration %q", c.Arbitration)
	}
	if c.Guarded && c.Arbitration != UtilityGreedy {
		return fmt.Errorf("fleet: guarded mode requires utility-greedy arbitration, got %q", c.Arbitration)
	}
	if c.DriftEvery < 0 {
		return fmt.Errorf("fleet: DriftEvery %d must not be negative", c.DriftEvery)
	}
	return nil
}

// fleetJob is the arbiter's per-job bookkeeping, from offer to finalize.
type fleetJob struct {
	arr  arrival
	jk   *core.Jockey
	prof *profile.Profile
	rec  *JobRecord

	// Admission state.
	deferrals int
	attempted bool
	firstDue  time.Duration // first epoch the offer was considered
	nextTry   time.Duration // earliest next admission attempt
	backoff   time.Duration // current defer backoff (doubles per defer)

	// Post-admission state.
	handle      *cluster.Handle
	ctrl        *control.Controller
	guard       *control.Guard
	relDeadline time.Duration // SLO relative to admission (cluster Start)
	util        utility.Fn
	reservation int
	grant       int
	wanted      int       // last epoch's unconstrained desire, for gap attribution
	utilBuf     []float64 // per-grid utility scratch, sized once at admission
	latched     bool
}

type replay struct {
	cfg    *Config
	models *ModelCache
	c      *cluster.Cluster
	// builder runs every guard's C(p, a) rebuild in a guarded replay: the
	// event loop runs one at a time, and the replay's lifetime bounds the
	// buffers it keeps.
	builder *model.Builder

	// due queues every offer not yet admitted or rejected at the earliest
	// epoch it may be considered: its arrival time, or its deferred retry
	// time. Epochs where nothing is due pay one peek instead of a scan of
	// every pending offer, so epoch cost tracks active jobs, not
	// admitted-plus-waiting ones. dueScratch collects the offers that fire
	// in one epoch for re-sorting into offer order.
	due        eventq.Queue[*fleetJob]
	dueScratch []*fleetJob
	active     []*fleetJob // admitted and unfinished, in admission order

	// Incremental admission bookkeeping: demandCache is the committed load
	// (recomputed once per epoch, bumped per admission, replacing a full
	// demand() sum per due offer), deferred counts pending offers in
	// backoff (replacing a per-epoch scan of every pending offer).
	demandCache int
	deferred    int

	// Arbitration scratch, reused every epoch (see arbiter.go): bidder
	// arena, marginal-utility heap, latched-jobs list, heap-op counter.
	bidders        []bidder
	bheap          []int32
	latchedScratch []*fleetJob
	heapOps        int

	last time.Duration // previous epoch time, for gap integration
	held bool
	res  *Result
	err  error // first epoch-callback error; aborts the chain
}

// Run executes one fleet replay to completion and returns its record.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	models := cfg.Models
	if models == nil {
		models = NewModelCache(stats.DeriveSeed(cfg.Seed, "fleet-models"))
	}
	r := &replay{
		cfg:    &cfg,
		models: models,
		res: &Result{
			Arbitration: cfg.Arbitration,
			Guarded:     cfg.Guarded,
			Budget:      cfg.Budget,
		},
	}
	if cfg.Guarded {
		r.builder = new(model.Builder)
	}
	arrivals, err := genArrivals(&cfg, models)
	if err != nil {
		return nil, err
	}
	r.res.Jobs = make([]JobRecord, len(arrivals))
	for i, arr := range arrivals {
		jk, err := models.Model(arr.shape)
		if err != nil {
			return nil, fmt.Errorf("fleet: model for %s: %w", arr.shape.Key(), err)
		}
		prof, err := models.Profile(arr.shape)
		if err != nil {
			return nil, fmt.Errorf("fleet: profile for %s: %w", arr.shape.Key(), err)
		}
		r.res.Jobs[i] = JobRecord{
			ID:       arr.id,
			Shape:    arr.shape.Key(),
			Value:    arr.value,
			Drift:    arr.drift,
			Arrival:  arr.at,
			Deadline: arr.deadline,
		}
		r.due.Push(arr.at, &fleetJob{
			arr:  arr,
			jk:   jk,
			prof: prof,
			rec:  &r.res.Jobs[i],
		})
	}

	clusterCfg := cluster.Config{
		Machines:        cfg.Machines,
		SlotsPerMachine: cfg.SlotsPerMachine,
		Seed:            stats.DeriveSeed(cfg.Seed, "fleet-cluster"),
		RackOutages:     cfg.RackOutages,
		OnEpoch:         r.epoch,
		EpochPeriod:     epoch,
	}
	if cfg.Engine != nil {
		r.c, err = cfg.Engine.Reset(clusterCfg)
	} else {
		r.c, err = cluster.New(clusterCfg)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: cluster: %w", err)
	}
	// The hold keeps the event loop alive between admissions even when no
	// tracked job is running (e.g. every early job rejected, later ones
	// still pending).
	r.c.Hold()
	r.held = true
	if err := r.c.Run(); err != nil {
		return nil, fmt.Errorf("fleet: replay: %w", err)
	}
	if r.err != nil {
		return nil, r.err
	}
	r.res.Utilization = r.c.Utilization()
	r.res.finalize()
	return r.res, nil
}

// epoch is the arbiter's control tick, invoked by the cluster event loop
// every epoch. Order matters and is fixed: integrate allocation gaps
// for the interval that just ended, release finished jobs, process due
// admissions, then re-arbitrate and actuate the grants.
func (r *replay) epoch(now time.Duration) bool {
	if r.err != nil {
		return r.unhold(false)
	}
	r.res.Epochs++
	r.integrateGaps(now)
	r.releaseFinished(now)
	r.admitDue(now)
	granted, latched := r.arbitrate(now)
	if r.cfg.OnEpoch != nil {
		r.cfg.OnEpoch(EpochStats{
			At:       now,
			Active:   len(r.active),
			Deferred: r.deferred,
			Rejected: r.res.Rejected,
			Budget:   r.effectiveBudget(),
			Granted:  granted,
			Latched:  latched,
			Bidders:  len(r.bidders),
			HeapOps:  r.heapOps,
		})
	}
	r.last = now
	if r.due.Len() == 0 && len(r.active) == 0 {
		return r.unhold(false)
	}
	return true
}

func (r *replay) unhold(keep bool) bool {
	if r.held {
		r.c.Unhold()
		r.held = false
	}
	return keep
}

// abort records the first internal error and stops the epoch chain; Run
// surfaces the error after the cluster drains.
func (r *replay) abort(err error) {
	if r.err == nil {
		r.err = err
	}
	r.unhold(false)
}

// demand is the fleet's current committed load for admission fit checks:
// each active job's latest unconstrained want. FIFO's wants are frozen at
// the admission reservation, so the static baseline re-sums to the classic
// committed-reservations total; the adaptive disciplines see a running
// job's requirement shrink as it progresses (and a contained panic latch
// count at its reservation — the only promise the arbiter keeps for it),
// which is what frees room to admit a burst instead of turning it away on
// stale worst-case math.
func (r *replay) demand() int {
	sum := 0
	for _, fj := range r.active {
		if fj.latched {
			sum += fj.reservation
			continue
		}
		sum += fj.wanted
	}
	return sum
}

// effectiveBudget is what the arbiter may actually promise this epoch: the
// configured budget, shrunk to live capacity during outages. Degrading the
// budget (instead of pretending downed slots still exist) is what lets the
// water-fill squeeze the fleet gracefully during a rack outage.
func (r *replay) effectiveBudget() int {
	if cap := r.c.Capacity(); cap < r.cfg.Budget {
		return cap
	}
	return r.cfg.Budget
}

// integrateGaps accumulates, per active job, the token-seconds by which the
// last epoch's grant fell short of the job's unconstrained desire. Latched
// (guard-panic) intervals are charged to the guard bucket, everything else
// to arbitration; the attribution step later blames the dominant bucket.
func (r *replay) integrateGaps(now time.Duration) {
	for _, fj := range r.active {
		end := now
		if fj.handle.Done() {
			res := fj.handle.Result()
			if t := res.Start + res.Completion; t < end {
				end = t
			}
		}
		dt := (end - r.last).Seconds()
		if dt <= 0 || fj.wanted <= fj.grant {
			continue
		}
		gap := float64(fj.wanted-fj.grant) * dt
		if fj.latched {
			fj.rec.GuardGap += gap
		} else {
			fj.rec.ArbitrationGap += gap
		}
	}
}

// releaseFinished finalizes completed jobs and returns their reservations
// to the committed pool.
func (r *replay) releaseFinished(now time.Duration) {
	keep := r.active[:0]
	for _, fj := range r.active {
		if !fj.handle.Done() {
			keep = append(keep, fj)
			continue
		}
		res := fj.handle.Result()
		fj.rec.Completed = true
		fj.rec.Completion = res.Start + res.Completion
		fj.rec.Met = res.Met
		fj.rec.Utility = float64(fj.arr.value) * fj.util.Utility(res.Completion)
		if fj.guard != nil {
			fj.rec.GuardMode = fj.guard.Mode().String()
			for _, ev := range fj.guard.Events() {
				if ev.Kind == control.GuardEventPanic {
					fj.rec.Panics++
				}
			}
		}
	}
	r.active = keep
}

// admitDue processes, in offer order, every pending job whose arrival (or
// deferred retry) time has come. The due queue hands over exactly the
// offers that fire this epoch, so an epoch where nothing is due costs one
// peek — not a scan of every job still waiting in backoff.
func (r *replay) admitDue(now time.Duration) {
	if at, ok := r.due.Peek(); !ok || at > now {
		return
	}
	// The committed-load sum is O(active): take it once for the whole
	// batch of due offers and bump it per admission (admit), instead of
	// re-summing under every offer.
	r.demandCache = r.demand()
	r.dueScratch = r.dueScratch[:0]
	for at, ok := r.due.Peek(); ok && at <= now; at, ok = r.due.Peek() {
		_, fj, _ := r.due.Pop()
		r.dueScratch = append(r.dueScratch, fj)
	}
	// Offers firing together are considered in offer order — the order
	// the retired full pending scan used — not in queue pop order.
	sort.Slice(r.dueScratch, func(i, j int) bool { return r.dueScratch[i].arr.id < r.dueScratch[j].arr.id })
	for _, fj := range r.dueScratch {
		if !r.tryAdmit(now, fj) {
			// Deferred: back into the queue at its next retry time.
			r.due.Push(fj.nextTry, fj)
		}
	}
}

// tryAdmit resolves one due offer: admit, reject, or (returning false)
// defer to a later epoch with doubled backoff.
func (r *replay) tryAdmit(now time.Duration, fj *fleetJob) bool {
	if !fj.attempted {
		fj.attempted = true
		fj.firstDue = now
	}
	remaining := fj.arr.at + fj.arr.deadline - now
	need, feasible := fj.jk.RequiredAllocation(remaining)
	if !feasible {
		// No allocation on the grid meets the (possibly already-shrunk)
		// deadline: admitting would burn budget on a certain miss.
		r.reject(fj, "infeasible")
		return true
	}
	// The static baseline fits against the nominal budget — it does not
	// watch live capacity, so during an outage it happily admits into
	// slots that no longer exist. The adaptive disciplines admit against
	// what the cluster can actually deliver right now.
	budget := r.effectiveBudget()
	if r.cfg.Arbitration == FIFO {
		budget = r.cfg.Budget
	}
	if r.demandCache+need > budget {
		if r.cfg.Arbitration == FIFO {
			// The static baseline never revisits: no fit now, no job.
			r.reject(fj, "no-fit")
			return true
		}
		if fj.deferrals >= maxDefers {
			r.reject(fj, "overload")
			return true
		}
		// Deterministic bounded backoff: 1, 2, 4, ... epochs. Deferring
		// (instead of admitting into an overcommitted budget) is the
		// graceful-degradation path under burst arrivals.
		if fj.backoff <= 0 {
			fj.backoff = epoch
		} else {
			fj.backoff *= 2
		}
		fj.deferrals++
		if fj.deferrals == 1 {
			r.deferred++
		}
		fj.nextTry = now + fj.backoff
		fj.rec.Deferrals = fj.deferrals
		return false
	}
	if err := r.admit(now, fj, need); err != nil {
		r.abort(err)
		return true
	}
	return true
}

func (r *replay) reject(fj *fleetJob, reason string) {
	if fj.deferrals > 0 {
		r.deferred--
	}
	fj.rec.Rejected = true
	fj.rec.RejectReason = reason
	// A turned-away job is a broken promise at full weight: it scores the
	// utility floor of a hard miss.
	fj.rec.Utility = -float64(fj.arr.value)
	r.res.Rejected++
}

// deadlineCurve is the fleet's per-job utility curve: flat at 1 until the
// SLO, falling linearly to −1 over a grace of max(10 minutes, d/4), and
// floored at −1 after. The floor (unlike utility.Deadline's −1000 tail)
// bounds how much one straggler can damage the aggregate, and a flat tail
// means a hopeless job's marginal utility goes to zero — at which point
// the water-fill clamps it to the floor and hands its tokens to jobs that
// can still win. Graceful degradation, encoded in the curve.
func deadlineCurve(d time.Duration) (utility.Fn, error) {
	grace := d / 4
	if grace < 10*time.Minute {
		grace = 10 * time.Minute
	}
	return utility.NewPiecewiseLinear([]utility.Point{
		{T: 0, U: 1},
		{T: d, U: 1},
		{T: d + grace, U: -1},
	})
}

// admit submits the job with its reservation as the initial grant and
// builds its per-job control stack.
func (r *replay) admit(now time.Duration, fj *fleetJob, need int) error {
	fj.relDeadline = fj.arr.at + fj.arr.deadline - now
	u, err := deadlineCurve(fj.relDeadline)
	if err != nil {
		return fmt.Errorf("fleet: utility curve for job %d: %w", fj.arr.id, err)
	}
	fj.util = u
	jobCfg := cluster.JobConfig{
		Profile:   fj.prof,
		Guarantee: need,
		Weight:    fj.arr.value,
		Deadline:  fj.relDeadline,
		Start:     now,
		Tracked:   true,
		NoTrace:   true,
	}
	if fj.arr.drift {
		jobCfg.Drifts = []cluster.StageDrift{{At: fj.relDeadline / 3, Stage: -1, Factor: driftFactor}}
	}
	if r.cfg.Arbitration == UtilityGreedy {
		ctrl, err := control.NewController(control.Config{
			Predictor:  fj.jk.Model(),
			Utility:    fj.util,
			Candidates: fj.jk.Grid(),
		})
		if err != nil {
			return fmt.Errorf("fleet: controller for job %d: %w", fj.arr.id, err)
		}
		fj.ctrl = ctrl
		if r.cfg.Guarded {
			guard, err := fj.jk.Guard(ctrl, r.builder)
			if err != nil {
				return fmt.Errorf("fleet: guard for job %d: %w", fj.arr.id, err)
			}
			fj.guard = guard
			jobCfg.OnTaskEvent = guard.ObserveTask
		}
	}
	h, err := r.c.Submit(jobCfg)
	if err != nil {
		return fmt.Errorf("fleet: submit job %d: %w", fj.arr.id, err)
	}
	fj.handle = h
	if fj.deferrals > 0 {
		r.deferred--
	}
	fj.reservation = need
	fj.grant = need
	fj.wanted = need
	fj.utilBuf = make([]float64, len(fj.jk.Grid()))
	r.demandCache += need
	fj.rec.Admitted = true
	fj.rec.AdmittedAt = now
	fj.rec.Reservation = need
	// A deferred admission spent its wait on the admission mechanism:
	// charge those token-seconds to the admission bucket. The wait is
	// measured from the first epoch the offer was considered, so plain
	// epoch quantization (shared by every discipline) is not blamed.
	fj.rec.AdmissionGap = (now - fj.firstDue).Seconds() * float64(need)
	r.res.Admitted++
	r.active = append(r.active, fj)
	return nil
}
