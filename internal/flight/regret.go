package flight

import (
	"fmt"
	"sort"
	"time"

	"github.com/jockeysim/jockey/internal/control"
)

// ReplayOutcome is the outcome of one run — the actual recorded run, or a
// counterfactual replay of it under a constant allocation.
type ReplayOutcome struct {
	// Alloc is the constant allocation replayed (0 for the actual run).
	Alloc int `json:"alloc"`
	// Completion is when the job finished.
	Completion time.Duration `json:"completion_ns"`
	// Met reports whether the deadline was met.
	Met bool `json:"met"`
	// AllocTokenSeconds is the integral of the granted allocation over the
	// run — the budget the grant cost the cluster.
	AllocTokenSeconds float64 `json:"alloc_token_seconds"`
}

// Replayer re-executes the recorded run with a constant allocation of a
// tokens, everything else identical. Because the whole stack derives its
// randomness from (seed, job, run) labels, the replay is exact: the same
// cluster, failures, background load and faults, with only the SLO job's
// grant changed.
type Replayer func(alloc int) (ReplayOutcome, error)

// MechanismShare attributes part of the hindsight allocation gap to one
// control mechanism.
type MechanismShare struct {
	// Mechanism is an attribution label (see Attribution* constants).
	Mechanism string `json:"mechanism"`
	// Ticks is how many recorded ticks contributed.
	Ticks int `json:"ticks"`
	// GapTokenSeconds is the token-seconds of allocation gap (shortfall
	// below the hindsight target on a missed run, excess above it on a met
	// run) accumulated over those ticks.
	GapTokenSeconds float64 `json:"gap_token_seconds"`
}

// Attribution labels: the per-tick mechanisms collapsed into the paper-level
// question "model error vs. damping vs. guard intervention".
const (
	AttributionModelError   = "model-error"
	AttributionHysteresis   = "hysteresis"
	AttributionDeadZone     = "dead-zone"
	AttributionGuardPanic   = "guard-panic"
	AttributionUrgencyBoost = "urgency-boost"
	AttributionUnknown      = "unattributed"
)

// attributionOrder fixes the iteration order of attribution aggregation so
// no code ever ranges over a map of shares (determinism by construction).
var attributionOrder = []string{
	AttributionModelError,
	AttributionHysteresis,
	AttributionDeadZone,
	AttributionGuardPanic,
	AttributionUrgencyBoost,
	AttributionUnknown,
}

// Regret is the counterfactual report of one run against the hindsight
// space of constant allocations.
//
// Two regrets are reported, both provably ≥ 0, exactly 0 when the actual
// trajectory is hindsight-optimal, and monotone non-increasing as the
// candidate set shrinks (pinned by the property tests):
//
//   - DeadlineRegret is 1 when the actual run missed its deadline but some
//     replayed constant allocation met it ("the miss was avoidable"), else 0.
//   - TokenRegret is, for runs that met the deadline, the token-seconds the
//     actual grant spent above the cheapest deadline-meeting constant
//     allocation ("the tokens were avoidable"); 0 for missed runs.
type Regret struct {
	// Candidates is the ascending hindsight allocation set.
	Candidates []int `json:"candidates"`
	// Replays are the constant-allocation outcomes, aligned with Candidates.
	Replays []ReplayOutcome `json:"replays"`
	// Actual is the recorded run's outcome (Alloc 0).
	Actual ReplayOutcome `json:"actual"`
	// HindsightAlloc is the constant allocation of the best replay under
	// (met, fewer token-seconds) lexicographic order, or 0 when no replay
	// strictly beats the actual trajectory.
	HindsightAlloc int `json:"hindsight_alloc"`
	// DeadlineRegret and TokenRegret are defined above.
	DeadlineRegret float64 `json:"deadline_regret"`
	TokenRegret    float64 `json:"token_regret"`
	// Attribution splits the per-tick allocation gap between the actual
	// grant and the hindsight target by mechanism, largest first.
	Attribution []MechanismShare `json:"attribution,omitempty"`
	// Attributed is the dominant mechanism ("" when there is no regret).
	Attributed string `json:"attributed,omitempty"`
}

// betterOutcome orders outcomes by (met the deadline, fewer token-seconds).
func betterOutcome(a, b ReplayOutcome) bool {
	if a.Met != b.Met {
		return a.Met
	}
	return a.AllocTokenSeconds < b.AllocTokenSeconds
}

// Counterfactual replays the recorded run under every candidate constant
// allocation and scores the actual trajectory against the hindsight-best
// one. ticks are the run's recorded decisions (used for attribution only;
// may be empty), actual is the recorded outcome, and candidates the
// hindsight allocations (deduplicated and sorted; non-positive entries are
// dropped).
func Counterfactual(ticks []Tick, actual ReplayOutcome, candidates []int, replay Replayer) (*Regret, error) {
	cands := append([]int(nil), candidates...)
	sort.Ints(cands)
	n := 0
	for _, a := range cands {
		if a <= 0 || (n > 0 && cands[n-1] == a) {
			continue
		}
		cands[n] = a
		n++
	}
	cands = cands[:n]

	reg := &Regret{Candidates: cands, Actual: actual}
	reg.Replays = make([]ReplayOutcome, 0, len(cands))
	for _, a := range cands {
		o, err := replay(a)
		if err != nil {
			return nil, fmt.Errorf("flight: replaying constant allocation %d: %w", a, err)
		}
		o.Alloc = a
		reg.Replays = append(reg.Replays, o)
	}

	best := actual
	for _, o := range reg.Replays {
		if betterOutcome(o, best) {
			best = o
			reg.HindsightAlloc = o.Alloc
		}
	}
	if best.Met && !actual.Met {
		reg.DeadlineRegret = 1
	}
	if actual.Met {
		minTok := actual.AllocTokenSeconds
		for _, o := range reg.Replays {
			if o.Met && o.AllocTokenSeconds < minTok {
				minTok = o.AllocTokenSeconds
			}
		}
		reg.TokenRegret = actual.AllocTokenSeconds - minTok
	}
	reg.attribute(ticks)
	return reg, nil
}

// attribute splits the allocation gap between the actual grants and the
// hindsight target by the mechanism that set each tick's grant. The target
// is the cheapest deadline-meeting constant allocation: on a missed run the
// gap is the shortfall below it (what kept the job under-provisioned), on a
// met run the excess above it (what over-spent).
func (r *Regret) attribute(ticks []Tick) {
	if r.DeadlineRegret == 0 && r.TokenRegret == 0 {
		return
	}
	var target *ReplayOutcome
	for i := range r.Replays {
		o := &r.Replays[i]
		if !o.Met {
			continue
		}
		if target == nil || o.AllocTokenSeconds < target.AllocTokenSeconds ||
			(o.AllocTokenSeconds == target.AllocTokenSeconds && o.Alloc < target.Alloc) {
			target = o
		}
	}
	if target == nil {
		// Unreachable when either regret is positive, but keep the report
		// well-formed for hand-built inputs.
		return
	}
	shortfall := r.DeadlineRegret > 0
	shares := map[string]*MechanismShare{}
	for i, t := range ticks {
		gap := target.Alloc - t.Granted
		if !shortfall {
			gap = -gap
		}
		if gap <= 0 {
			continue
		}
		end := r.Actual.Completion
		if i+1 < len(ticks) {
			end = ticks[i+1].At
		}
		if end < t.At {
			end = t.At
		}
		m := attributionOf(t)
		s := shares[m]
		if s == nil {
			s = &MechanismShare{Mechanism: m}
			shares[m] = s
		}
		s.Ticks++
		s.GapTokenSeconds += float64(gap) * (end - t.At).Seconds()
	}
	for _, m := range attributionOrder {
		if s := shares[m]; s != nil {
			r.Attribution = append(r.Attribution, *s)
		}
	}
	sort.SliceStable(r.Attribution, func(i, j int) bool {
		a, b := r.Attribution[i], r.Attribution[j]
		if a.GapTokenSeconds != b.GapTokenSeconds {
			return a.GapTokenSeconds > b.GapTokenSeconds
		}
		return a.Mechanism < b.Mechanism
	})
	if len(r.Attribution) > 0 {
		r.Attributed = r.Attribution[0].Mechanism
	}
}

// attributionOf collapses a tick's mechanism into an attribution label:
// explicit damping and guard mechanisms name themselves; a model-chosen
// grant is model error.
func attributionOf(t Tick) string {
	switch t.Mechanism {
	case control.MechHysteresis:
		return AttributionHysteresis
	case control.MechDeadZone:
		return AttributionDeadZone
	case control.MechUrgencyBoost:
		return AttributionUrgencyBoost
	case control.MechGuardPanic:
		return AttributionGuardPanic
	}
	switch t.Mechanism {
	case control.MechModel, control.MechFirstTick:
		return AttributionModelError
	}
	return AttributionUnknown
}
