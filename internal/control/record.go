package control

import (
	"time"

	"github.com/jockeysim/jockey/internal/model"
)

// Mechanism labels for Decision.Mechanism: which control mechanism
// determined the final grant at a tick. The flight recorder's counterfactual analyzer
// groups regret attribution by these names, so they are part of the stable
// flight-record schema (internal/flight/json.go).
const (
	// MechModel: the grant equals the raw model argmax — the model alone
	// decided.
	MechModel = "model"
	// MechFirstTick: the initial pessimistic jump straight to the raw
	// allocation (no smoothing state exists yet).
	MechFirstTick = "first-tick"
	// MechHysteresis: exponential smoothing kept the grant away from the raw
	// want.
	MechHysteresis = "hysteresis"
	// MechDeadZone: the dead zone held the previous grant although the raw
	// allocation wanted to rise.
	MechDeadZone = "dead-zone"
	// MechUrgencyBoost: the guard bypassed hysteresis and jumped the grant to
	// the raw allocation (stale model, deadline at risk).
	MechUrgencyBoost = "urgency-boost"
	// MechGuardPanic: the guard granted the full token budget (panic mode).
	MechGuardPanic = "guard-panic"
)

// CandidateEval is one candidate allocation's evaluation at a control tick.
type CandidateEval struct {
	// Alloc is the candidate allocation (tokens).
	Alloc int
	// Utility is the expected utility under the dead-zone-shifted curve —
	// exactly the value the raw-allocation argmax compares.
	Utility float64
	// Predicted is the worst-case completion estimate at this allocation
	// (elapsed + slack · Remaining at the configured quantile).
	Predicted time.Duration
}

// DecisionRecord is the flight recorder's view of one control tick: the
// Decision the policy returned — grant, mechanism, guard mode — plus when it
// was made and the full candidate evaluation the argmax ran over.
//
// Candidates aliases an internal scratch buffer owned by the emitting policy;
// it is valid only for the duration of the RecordDecision call and must be
// copied by recorders that retain it.
type DecisionRecord struct {
	// At is the job's elapsed time at the tick.
	At time.Duration
	// Decision is the tick exactly as the policy returned it.
	Decision
	// Candidates holds every candidate's evaluation, ascending by
	// allocation.
	Candidates []CandidateEval
}

// Recorder receives one DecisionRecord per control tick. Implementations
// must treat the record (and its Candidates slice) as borrowed: both are
// reused by the emitter on the next tick.
type Recorder interface {
	RecordDecision(r *DecisionRecord)
}

// Recordable is implemented by policies that support decision recording
// (Controller and Guard). SetRecorder(nil) turns recording off; the nil
// path adds zero allocations and does not perturb decisions (extra
// candidate evaluations on the recording path hit only pure or memoized
// predictor queries).
type Recordable interface {
	SetRecorder(Recorder)
}

// SetRecorder installs (or, with nil, removes) the decision recorder.
func (c *Controller) SetRecorder(rec Recorder) {
	c.rec = rec
	c.staging = rec != nil
}

// publish stamps the staged record with the tick and hands it to rec. It is
// the one emit point for decision records: the outermost policy calls it
// once per tick with the decision it returns — Controller.Decide when the
// controller runs alone, the Guard after its overrides otherwise.
//
//jockey:hotpath
func (c *Controller) publish(rec Recorder, st model.State, d Decision) {
	c.record.At = st.Elapsed
	c.record.Decision = d
	rec.RecordDecision(&c.record)
}
