// Package control implements Jockey's resource-allocation control loop
// (§4.3) and the baseline allocation policies the paper evaluates against
// it.
//
// Every control period the policy observes the job state (elapsed time and
// per-stage completion fractions), asks a latency predictor for the expected
// utility of each candidate allocation, and grants the minimum allocation
// that maximizes utility — moderated by three standard control-theory
// mechanisms: slack (multiplicative padding of latency predictions),
// hysteresis (exponential smoothing of the allocation), and a dead zone
// (treating the deadline as D earlier and refusing to raise the allocation
// unless the job is at least D behind schedule).
package control

import (
	"fmt"
	"math"
	"time"

	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/utility"
)

// Default control parameters (§5.1 of the paper).
const (
	DefaultSlack      = 1.2
	DefaultHysteresis = 0.2
	DefaultDeadZone   = 3 * time.Minute
	DefaultPeriod     = time.Minute
)

// Decision is one output of a policy.
type Decision struct {
	// Raw is the unsmoothed allocation A^r that maximizes expected utility
	// (the blue line in Fig. 6).
	Raw int
	// Granted is the allocation actually requested after hysteresis and
	// dead zone (the black line in Fig. 6).
	Granted int
	// Progress is the indicator value used, in [0, 1] (0 for policies that
	// do not track progress).
	Progress float64
	// Predicted is the policy's worst-case completion-time estimate
	// T_t = elapsed + slack · C(p, granted), or 0 if not applicable.
	Predicted time.Duration
	// Mode names the guard mode that produced the decision, "primary" or
	// "panic" ("" for unguarded policies; see Guard).
	Mode string
	// Deviation is the guard's normalized misprediction score at this tick
	// (0 for unguarded policies).
	Deviation float64
	// Mechanism is the Mech* constant naming what determined the grant (""
	// for the baseline policies).
	Mechanism string
}

// Policy decides a job's guaranteed token allocation at each control tick.
type Policy interface {
	// Decide returns the allocation for the current state. It is called
	// once per control period.
	Decide(st model.State) Decision
	// ChangeUtility replaces the utility function mid-run (e.g. when the
	// job's deadline changes, §5.2).
	ChangeUtility(u utility.Fn)
}

// Config parameterizes the Jockey controller.
type Config struct {
	// Predictor supplies remaining-time estimates (the simulator-backed
	// model.CPA for Jockey, model.Amdahl for "Jockey w/o simulator").
	Predictor model.Predictor
	// Utility is the job's utility function.
	Utility utility.Fn
	// Candidates is the ascending set of allocations considered. Required.
	Candidates []int
	// Slack multiplies latency predictions (default 1.2). Set to 1 for
	// "no slack".
	Slack float64
	// Hysteresis is the smoothing factor α in (0, 1]; 1 disables smoothing
	// (default 0.2).
	Hysteresis float64
	// DeadZone is D (default 3 minutes; negative disables, zero means
	// default).
	DeadZone time.Duration
}

func (c *Config) fill() error {
	if c.Predictor == nil {
		return fmt.Errorf("control: Config.Predictor is required")
	}
	if c.Utility == nil {
		return fmt.Errorf("control: Config.Utility is required")
	}
	if len(c.Candidates) == 0 {
		return fmt.Errorf("control: Config.Candidates is empty")
	}
	prev := 0
	for _, a := range c.Candidates {
		if a <= prev {
			return fmt.Errorf("control: Config.Candidates must be ascending and positive, got %v", c.Candidates)
		}
		prev = a
	}
	if c.Slack == 0 {
		c.Slack = DefaultSlack
	}
	if !(c.Slack >= 1) || math.IsInf(c.Slack, 1) {
		return fmt.Errorf("control: slack %v out of [1, +Inf)", c.Slack)
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = DefaultHysteresis
	}
	if !(c.Hysteresis > 0 && c.Hysteresis <= 1) {
		return fmt.Errorf("control: hysteresis %v out of (0, 1]", c.Hysteresis)
	}
	if c.DeadZone == 0 {
		c.DeadZone = DefaultDeadZone
	}
	if c.DeadZone < 0 {
		c.DeadZone = 0
	}
	return nil
}

// Controller is Jockey's dynamic allocation policy.
type Controller struct {
	cfg      Config
	effU     utility.Fn // utility shifted earlier by the dead zone
	deadline time.Duration

	started  bool
	smoothed float64 // A^s, kept fractional between ticks
	granted  int

	// rec, when non-nil, receives one DecisionRecord per Decide call.
	// staging makes the argmax stage each candidate's evaluation into
	// record, the reused emit buffer; a Guard turns it on without a rec,
	// because the guard emits the tick itself (see record.go).
	rec     Recorder
	staging bool
	record  DecisionRecord
}

// NewController builds the Jockey control loop.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg}
	c.setUtility(cfg.Utility)
	return c, nil
}

// ChangeUtility implements Policy, supporting mid-run deadline changes.
func (c *Controller) ChangeUtility(u utility.Fn) { c.setUtility(u) }

func (c *Controller) setUtility(u utility.Fn) {
	c.cfg.Utility = u
	c.effU = u
	if pl, ok := u.(*utility.PiecewiseLinear); ok && c.cfg.DeadZone > 0 {
		c.effU = pl.ShiftEarlier(c.cfg.DeadZone)
	}
	c.deadline = utilityKnee(u)
}

// utilityKnee returns the latest completion time that still achieves the
// curve's maximum utility — the effective deadline.
func utilityKnee(u utility.Fn) time.Duration {
	pl, ok := u.(*utility.PiecewiseLinear)
	if !ok {
		return 0
	}
	pts := pl.Points()
	best := pts[0].U
	for _, p := range pts {
		if p.U > best {
			best = p.U
		}
	}
	knee := pts[0].T
	for _, p := range pts {
		if p.U >= best-1e-12 && p.T > knee {
			knee = p.T
		}
	}
	return knee
}

// argmax returns the minimum candidate allocation maximizing expected
// utility under u, A^r = argmin_a { a : U_a = max_b U_b }, where utilities
// within 1e-9 of the best count as equal. With a non-nil stage it also
// stages every candidate's evaluation into stage.Candidates.
//
//jockey:hotpath
func (cfg *Config) argmax(st model.State, u utility.Fn, stage *DecisionRecord) int {
	if stage != nil {
		stage.Candidates = stage.Candidates[:0]
	}
	best := -1
	bestU := 0.0
	for _, a := range cfg.Candidates {
		ua := cfg.Predictor.ExpectedUtility(st, a, cfg.Slack, u)
		if stage != nil {
			stage.Candidates = append(stage.Candidates, CandidateEval{Alloc: a, Utility: ua, Predicted: cfg.predictAt(st, a)})
		}
		if best == -1 || ua > bestU+1e-9 {
			best, bestU = a, ua
		}
	}
	return best
}

// rawAllocation is the argmax under the dead-zone-shifted curve, staging
// the candidate evaluations while recording.
//
//jockey:hotpath
func (c *Controller) rawAllocation(st model.State) int {
	var stage *DecisionRecord
	if c.staging {
		stage = &c.record
	}
	return c.cfg.argmax(st, c.effU, stage)
}

// Decide implements Policy.
//
//jockey:hotpath
func (c *Controller) Decide(st model.State) Decision {
	raw := c.rawAllocation(st)
	mech := MechFirstTick
	if !c.started {
		// The first decision jumps straight to the raw allocation — the
		// paper's pessimistic initial over-allocation.
		c.started = true
		c.smoothed = float64(raw)
		c.granted = raw
	} else {
		mech = c.smooth(st, raw)
	}
	d := c.decision(st, raw, mech)
	if c.rec != nil {
		c.publish(c.rec, st, d)
	}
	return d
}

// smooth moves the grant toward raw through the dead zone and hysteresis
// and returns the mechanism that determined it.
//
//jockey:hotpath
func (c *Controller) smooth(st model.State, raw int) string {
	target := raw
	mech := MechModel
	if target > c.granted && c.cfg.DeadZone > 0 && c.deadline > 0 {
		// Dead zone: the shifted utility curve already targets deadline−D,
		// so the job is "at least D behind schedule" only when its predicted
		// completion at the current grant misses the original deadline.
		// Within the band (deadline−D, deadline] the raw allocation wants to
		// rise but the controller holds, damping indicator noise.
		predicted := c.cfg.predictAt(st, c.granted)
		if predicted <= c.deadline {
			target = c.granted
			mech = MechDeadZone
		}
	}
	// Hysteresis: A^s_t = A^s_{t-1} + α (A^r − A^s_{t-1}).
	c.smoothed += c.cfg.Hysteresis * (float64(target) - c.smoothed)
	g := int(c.smoothed + 0.5)
	lo, hi := c.cfg.Candidates[0], c.cfg.Candidates[len(c.cfg.Candidates)-1]
	if g < lo {
		g = lo
	}
	if g > hi {
		g = hi
	}
	c.granted = g
	if g == raw {
		return MechModel
	}
	if mech != MechDeadZone {
		return MechHysteresis
	}
	return mech
}

// SetPredictor swaps the latency predictor mid-run, keeping the smoothing
// and dead-zone state intact so the allocation trajectory stays continuous.
// The guard-rail layer uses it to install a C(p, a) table re-profiled from
// live observations.
func (c *Controller) SetPredictor(p model.Predictor) { c.cfg.Predictor = p }

// Predictor returns the predictor currently driving decisions.
func (c *Controller) Predictor() model.Predictor { return c.cfg.Predictor }

// Granted returns the allocation currently in force (0 before the first
// decision).
func (c *Controller) Granted() int { return c.granted }

// Deadline returns the effective deadline derived from the utility curve's
// knee (0 if the curve is not piecewise linear).
func (c *Controller) Deadline() time.Duration { return c.deadline }

// Candidates returns the ascending candidate allocation grid.
func (c *Controller) Candidates() []int { return c.cfg.Candidates }

// PredictAt returns the controller's worst-case completion-time estimate at
// the given allocation: elapsed + slack · the maximum remaining-time sample.
func (c *Controller) PredictAt(st model.State, a int) time.Duration {
	return c.cfg.predictAt(st, a)
}

//jockey:hotpath
func (cfg *Config) predictAt(st model.State, a int) time.Duration {
	rem := cfg.Predictor.Remaining(st, a, 1.0)
	return st.Elapsed + time.Duration(float64(rem)*cfg.Slack)
}

//jockey:hotpath
func (c *Controller) decision(st model.State, raw int, mech string) Decision {
	d := Decision{
		Raw:       raw,
		Granted:   c.granted,
		Predicted: c.cfg.predictAt(st, c.granted),
		Mechanism: mech,
	}
	if prog, ok := c.cfg.Predictor.(interface{ Progress(model.State) float64 }); ok {
		d.Progress = prog.Progress(st)
	}
	return d
}
