package control

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/trace"
	"github.com/jockeysim/jockey/internal/utility"
)

// GuardMode is the guard's state: trusting its C(p, a) table, or panicking.
type GuardMode int

// The two modes: the precomputed C(p, a) table (possibly rebuilt from a
// blended profile), and the model-free max-allocation panic.
const (
	GuardPrimary GuardMode = iota
	GuardPanic
)

// String names the mode for decision logs and reports.
func (m GuardMode) String() string {
	switch m {
	case GuardPrimary:
		return "primary"
	case GuardPanic:
		return "panic"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// The guard-event kinds.
const (
	// GuardEventReprofile: model rebuilt in place from the blended profile.
	GuardEventReprofile = "reprofile"
	// GuardEventPanic: entered max-allocation panic.
	GuardEventPanic = "panic"
	// GuardEventRecover: left panic, back to the C(p, a) table.
	GuardEventRecover = "recover"
)

// GuardEvent records one guard-rail transition for the decision log.
type GuardEvent struct {
	// At is the job's elapsed time when the transition happened.
	At time.Duration
	// Kind is one of the GuardEvent* constants.
	Kind string
	// From and To are the modes before and after the transition (equal for
	// "reprofile").
	From, To GuardMode
	// Deviation is the detector score that triggered the transition.
	Deviation float64
	// LiveSamples is the number of successful live task observations
	// available at the time.
	LiveSamples int
}

// The detector and re-profiling settings.
const (
	// guardWindow is the number of control ticks the deviation detector
	// averages over, and the consecutive comfortable ticks panic needs before
	// it clears.
	guardWindow = 5
	// guardThreshold is the normalized misprediction score above which the
	// model is declared stale. The score is the windowed mean of per-tick
	// predicted-completion slip divided by wall time: 0 for a perfectly
	// calibrated model, ~0.5 under a 2× runtime drift.
	guardThreshold = 0.3
	// rebuildBackoff is the minimum elapsed time between model rebuilds, so
	// refreshes cannot storm the control period.
	rebuildBackoff = 4 * time.Minute
	// minLiveSamples is the number of successful recent live task
	// observations required before the prior profile is blended and a model
	// rebuilt.
	minLiveSamples = 20
	// liveWindow restricts the blend to live observations that completed
	// within this much elapsed time before the rebuild. Recency weighting is
	// what lets the blend track a regime change instead of averaging it away:
	// after a mid-run drift the window soon holds only post-drift samples.
	liveWindow = 10 * time.Minute
)

// GuardConfig wires a Guard around a Controller.
type GuardConfig struct {
	// Controller is the primary control loop (required). The guard swaps its
	// predictor on re-profiles; smoothing state carries over.
	Controller *Controller
	// Prior is the profile the primary model was built from (required): the
	// baseline that live observations are blended into.
	Prior *profile.Profile
	// RebuildPrimary rebuilds the primary predictor from a blended profile
	// (e.g. the parallel C(p, a) rebuild). generation counts rebuilds so the
	// callee can derive a fresh deterministic seed. Nil disables
	// re-profiling.
	RebuildPrimary func(p *profile.Profile, generation int) (model.Predictor, error)
	// Builder, when non-nil, is the per-replay owner RebuildPrimary builds
	// its C(p, a) tables on. The guard borrows its live trace's buffer from
	// it, sized once from the plan's task count, and owns every table
	// RebuildPrimary returns: it retires one into Builder as soon as a
	// newer one replaces it, and the last one, with the buffer, at Close.
	Builder *model.Builder
}

// Guard is the model-staleness guard-rail layer around the Jockey control
// loop: a deviation detector scoring the predictor's forecasts against
// observed progress, online re-profiling that blends live task observations
// into the prior profile and rebuilds the model mid-run, and a
// max-allocation panic when confidence is low and the deadline at risk.
//
// Guard implements Policy and is deterministic for a fixed seed: all inputs
// (states, live events) arrive in event order and rebuild seeds derive from
// a generation counter.
type Guard struct {
	cfg  GuardConfig
	mode GuardMode
	// maxAlloc is the panic grant: the controller's top candidate, the same
	// token budget the controller can reach.
	maxAlloc int
	// minLive is the blend's sample floor (minLiveSamples; tests lower it).
	minLive int

	live      trace.JobTrace
	liveOK    int            // successful (non-failed) events in live
	window    trace.JobTrace // recentLive's reused result header
	slips     []float64
	slipN     int // valid entries in slips (ring fill)
	slipI     int // ring index
	prevState model.State
	prevSet   bool
	rebuilds  int             // rebuilt predictor generations
	rebuilt   model.Predictor // the last predictor RebuildPrimary returned
	lastBuild time.Duration
	builtOnce bool
	stale     bool // latched: detector fired at least once on this model
	// alarm survives detector resets: once staleness fires it stays raised
	// until predictions comfortably meet the deadline again, so rescue
	// actions are not suspended while a freshly swapped model refills the
	// detector window.
	alarm bool
	// recoverStreak counts consecutive panic ticks whose predictions meet
	// the deadline; panic only clears after a full window of them, so noisy
	// predictions cannot flap the grant (each flap demotes in-flight tasks
	// to spare, exposing them to eviction).
	recoverStreak int
	events        []GuardEvent

	// rec, when non-nil, receives each tick's DecisionRecord after the
	// guard's overrides; the inner controller only stages candidates.
	rec Recorder
}

// SetRecorder installs (or, with nil, removes) the decision recorder. The
// guard emits each tick's record itself, after its overrides, so recorders
// see the decision that actually took effect.
func (g *Guard) SetRecorder(rec Recorder) {
	g.rec = rec
	c := g.cfg.Controller
	c.rec = nil
	c.staging = rec != nil
}

// emit publishes the tick's final decision when recording and returns it.
func (g *Guard) emit(st model.State, d Decision) Decision {
	if g.rec != nil {
		g.cfg.Controller.publish(g.rec, st, d)
	}
	return d
}

// NewGuard builds the guard-rail layer. See GuardConfig.
func NewGuard(cfg GuardConfig) (*Guard, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("control: GuardConfig.Controller is required")
	}
	if cfg.Prior == nil {
		return nil, fmt.Errorf("control: GuardConfig.Prior is required")
	}
	cand := cfg.Controller.Candidates()
	g := &Guard{
		cfg:      cfg,
		maxAlloc: cand[len(cand)-1],
		minLive:  minLiveSamples,
		slips:    make([]float64, guardWindow),
	}
	g.live.Reset(cfg.Prior.Job.Name, cfg.Prior.Job.NumStages())
	if cfg.Builder != nil {
		g.live.Events = cfg.Builder.TraceBuffer(cfg.Prior.Job.TotalTasks())
	}
	return g, nil
}

// Close ends the guard's run. With a GuardConfig.Builder, it retires the
// last table the guard's rebuilds made and hands the live trace's buffer
// back, for the next guard on that Builder. Neither the guard nor its
// controller may be used afterwards; Mode and Events stay readable.
func (g *Guard) Close() {
	if b := g.cfg.Builder; b != nil {
		g.retire(g.rebuilt)
		b.RetireTrace(g.live.Events)
	}
	g.rebuilt = nil
	g.live.Events = nil
}

// retire gives a table RebuildPrimary built back to the Builder.
func (g *Guard) retire(p model.Predictor) {
	if c, ok := p.(*model.CPA); ok && g.cfg.Builder != nil {
		g.cfg.Builder.Retire(c)
	}
}

// ChangeUtility implements Policy, delegating to the inner controller.
func (g *Guard) ChangeUtility(u *utility.PiecewiseLinear) { g.cfg.Controller.ChangeUtility(u) }

// Mode returns whether the guard is trusting its model or panicking.
func (g *Guard) Mode() GuardMode { return g.mode }

// Events returns a copy of the transition log (reprofiles, panics,
// recoveries). The copy keeps callers from mutating — or observing
// later appends to — the guard's internal log.
func (g *Guard) Events() []GuardEvent {
	return append([]GuardEvent(nil), g.events...)
}

// ObserveTask ingests one completed task attempt from the running job. Wire
// it to the cluster's JobConfig.OnTaskEvent so the guard can re-profile
// online from the live trace. Attempts must arrive in non-decreasing Ended
// order, as a cluster reports them; recentLive depends on it, and
// `-tags invariantdebug` builds assert it.
func (g *Guard) ObserveTask(e trace.TaskEvent) {
	if invariant.Debug {
		if n := len(g.live.Events); n > 0 {
			last := g.live.Events[n-1].Ended
			invariant.Assertf(e.Ended >= last,
				"control: guard of job %s observed stage %d task %d ending at %v after an attempt ending at %v",
				g.live.JobName, e.Stage, e.Task, e.Ended, last)
		}
	}
	g.live.AddTask(e)
	if !e.Failed {
		g.liveOK++
	}
}

// detectorQuantile is the remaining-time quantile the deviation detector
// probes. The median is less noisy than the controller's worst-case
// quantile, which jumps between reservoir extremes.
const detectorQuantile = 0.5

// observe scores the predictor's self-consistency over the last control
// period: for a calibrated model, elapsed + Remaining is a martingale, so
// the per-tick slip ((T_t − T_{t−1}) / Δt, both evaluated under the same
// allocation) should hover around zero. Persistent positive slip means the
// model underestimates remaining work (runtime drift, outages, contention);
// negative slip means it overestimates (input shrank). Probing both states
// under the current grant isolates model error from control actions.
func (g *Guard) observe(st model.State) float64 {
	defer func() {
		g.prevState.Elapsed = st.Elapsed
		g.prevState.FracDone = append(g.prevState.FracDone[:0], st.FracDone...)
		g.prevSet = true
	}()
	if !g.prevSet {
		return g.score()
	}
	dt := st.Elapsed - g.prevState.Elapsed
	if dt <= 0 {
		return g.score()
	}
	a := g.cfg.Controller.Granted()
	if a < 1 {
		a = 1
	}
	pred := g.cfg.Controller.Predictor()
	tNow := st.Elapsed + model.Remaining(pred, st, a, detectorQuantile)
	tPrev := g.prevState.Elapsed + model.Remaining(pred, g.prevState, a, detectorQuantile)
	slip := float64(tNow-tPrev) / float64(dt)
	g.slips[g.slipI] = slip
	g.slipI = (g.slipI + 1) % len(g.slips)
	if g.slipN < len(g.slips) {
		g.slipN++
	}
	return g.score()
}

// score returns |windowed mean slip|, or 0 until the window has filled. A
// model that underestimates (completion receding) and one that
// overestimates score alike: either way it is stale.
func (g *Guard) score() float64 {
	if g.slipN < len(g.slips) {
		return 0
	}
	var sum float64
	for _, s := range g.slips[:g.slipN] {
		sum += s
	}
	return math.Abs(sum / float64(g.slipN))
}

// resetDetector clears the slip window and state baseline, giving a freshly
// swapped predictor an unbiased measurement.
func (g *Guard) resetDetector() {
	g.slipN, g.slipI = 0, 0
	g.prevSet = false
	g.stale = false
}

// recentLive returns the live trace restricted to the recency window
// (events that completed within liveWindow of now) and whether it holds
// enough successful observations to blend. Live events arrive in
// non-decreasing Ended order, so the window is a suffix of the live trace:
// the result is the guard's reused header over a view of that suffix,
// capped so that an append copies instead of writing into the live trace,
// and valid until the next call.
func (g *Guard) recentLive(now time.Duration) (*trace.JobTrace, bool) {
	cutoff := now - liveWindow
	ev := g.live.Events
	i := sort.Search(len(ev), func(i int) bool { return ev[i].Ended >= cutoff })
	out := &g.window
	out.Reset(g.live.JobName, g.live.NumStages)
	out.Events = ev[i:len(ev):len(ev)]
	ok := 0
	for _, e := range out.Events {
		if !e.Failed {
			ok++
		}
	}
	return out, ok >= g.minLive
}

// blend returns the prior profile with the given live observations blended
// in, or the prior itself if the blend fails.
func (g *Guard) blend(live *trace.JobTrace) *profile.Profile {
	p, err := profile.Blend(g.cfg.Prior, live)
	if err != nil {
		return g.cfg.Prior
	}
	return p
}

// deadlineAtRisk reports whether even the full token budget is predicted to
// miss the deadline under the current model.
func (g *Guard) deadlineAtRisk(st model.State) bool {
	d := g.cfg.Controller.Deadline()
	if d <= 0 {
		return false
	}
	return g.cfg.Controller.PredictAt(st, g.maxAlloc) > d
}

// maybeRebuild re-profiles: it blends live stats into the prior and
// rebuilds the C(p, a) predictor, rate-limited by the backoff. The cheap,
// pure checks run first, so a stale model inside the backoff costs no
// search of the live trace.
func (g *Guard) maybeRebuild(st model.State, score float64) {
	if g.cfg.RebuildPrimary == nil || g.builtOnce && st.Elapsed-g.lastBuild < rebuildBackoff {
		return
	}
	live, ok := g.recentLive(st.Elapsed)
	if !ok {
		return
	}
	g.rebuilds++
	pred, err := g.cfg.RebuildPrimary(g.blend(live), g.rebuilds)
	if err != nil {
		return
	}
	g.cfg.Controller.SetPredictor(pred)
	g.retire(g.rebuilt)
	g.rebuilt = pred
	g.lastBuild = st.Elapsed
	g.builtOnce = true
	g.logEvent(st, GuardEventReprofile, g.mode, g.mode, score)
	g.resetDetector()
}

func (g *Guard) logEvent(st model.State, kind string, from, to GuardMode, score float64) {
	g.events = append(g.events, GuardEvent{
		At:          st.Elapsed,
		Kind:        kind,
		From:        from,
		To:          to,
		Deviation:   score,
		LiveSamples: g.liveOK,
	})
}

// Decide implements Policy: run the deviation detector, re-profile if the
// model has gone stale, panic if the deadline is at risk as well, then
// delegate to the controller.
func (g *Guard) Decide(st model.State) Decision {
	if g.mode == GuardPanic {
		return g.panicDecision(st)
	}
	score := g.observe(st)
	if score > guardThreshold {
		g.stale = true
		g.alarm = true
	}
	if g.stale {
		g.maybeRebuild(st, score)
	}
	// Whenever confidence is low and even the full budget is predicted to
	// miss, stop trusting the model entirely.
	if (g.stale || g.alarm) && g.deadlineAtRisk(st) {
		g.recoverStreak = 0
		g.logEvent(st, GuardEventPanic, g.mode, GuardPanic, score)
		g.mode = GuardPanic
		return g.panicDecision(st)
	}
	d := g.cfg.Controller.Decide(st)
	if g.alarm {
		c := g.cfg.Controller
		if dl := c.Deadline(); dl > 0 {
			switch pred := c.PredictAt(st, d.Granted); {
			case d.Raw > d.Granted && pred > dl:
				// Urgency override: the model has been flagged stale and even
				// the granted allocation is predicted to miss. Waiting out the
				// hysteresis lag would burn deadline slack on a model known to
				// be wrong, so jump straight to the raw allocation; smoothing
				// resumes from there.
				c.smoothed = float64(d.Raw)
				c.granted = d.Raw
				d.Granted = d.Raw
				d.Predicted = c.PredictAt(st, d.Raw)
				d.Mechanism = MechUrgencyBoost
			case pred+c.cfg.DeadZone <= dl:
				// Predictions are comfortably inside the deadline again: stand
				// down until the detector re-fires.
				g.alarm = false
			}
		}
	}
	d.Mode = g.mode.String()
	d.Deviation = score
	return g.emit(st, d)
}

// panicDecision grants the full token budget and watches for recovery: once
// the model predicts the deadline is met at the full budget with the dead
// zone to spare for a full detector window of consecutive ticks, the guard
// goes back to its C(p, a) table. The dwell requirement is what
// keeps panic from flapping: a single optimistic prediction must not shed
// tokens, because every release demotes in-flight tasks to spare where
// competing guarantees can evict them mid-run.
func (g *Guard) panicDecision(st model.State) Decision {
	c := g.cfg.Controller
	d := c.Deadline()
	if d > 0 && c.PredictAt(st, g.maxAlloc)+c.cfg.DeadZone <= d {
		g.recoverStreak++
	} else {
		g.recoverStreak = 0
	}
	if g.recoverStreak >= guardWindow {
		g.recoverStreak = 0
		g.mode = GuardPrimary
		g.logEvent(st, GuardEventRecover, GuardPanic, g.mode, 0)
		g.resetDetector()
		// Fall through to a normal decision on the table, seeding the
		// controller's smoothing at the panic grant so release is gradual.
		c.smoothed = float64(g.maxAlloc)
		c.granted = g.maxAlloc
		dec := c.Decide(st)
		dec.Mode = g.mode.String()
		return g.emit(st, dec)
	}
	// Keep the controller's bookkeeping consistent with the forced grant.
	c.started = true
	c.smoothed = float64(g.maxAlloc)
	c.granted = g.maxAlloc
	dec := c.decision(st, g.maxAlloc, MechGuardPanic)
	dec.Mode = GuardPanic.String()
	if g.rec != nil {
		// Panic bypasses the controller's argmax; run it only to stage the
		// record's candidates. A predictor's sample depends only on the
		// state and allocation, so this cannot perturb the trajectory.
		c.rawAllocation(st)
	}
	return g.emit(st, dec)
}
