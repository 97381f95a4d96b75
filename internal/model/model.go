// Package model provides Jockey's latency predictors: the C(p, a) table of
// remaining-completion-time distributions precomputed with the offline job
// simulator (§4.1), and the modified Amdahl's-Law analytic model used by the
// "Jockey w/o simulator" baseline. It also implements the oracle allocation
// O(T, d) = ⌈T/d⌉ used as the evaluation baseline for cluster impact (§5.1).
package model

import (
	"math"
	"time"

	"github.com/jockeysim/jockey/internal/utility"
)

// State is the observable state of a running job at control time.
type State struct {
	// Elapsed is t_r, the time the job has spent running.
	Elapsed time.Duration
	// FracDone is f_s per stage: the fraction of tasks completed.
	FracDone []float64
}

// Predictor estimates the remaining completion time of a job and the
// expected utility of finishing under a candidate token allocation.
type Predictor interface {
	// Remaining returns the q-quantile of the predicted remaining time at
	// the given state under allocation a (q=1 is the worst case observed).
	Remaining(st State, a int, q float64) time.Duration
	// ExpectedUtility returns E[U(Elapsed + slack · C)] over the predicted
	// remaining-time distribution C at allocation a.
	ExpectedUtility(st State, a int, slack float64, u utility.Fn) float64
}

// Oracle returns the oracle allocation O(T, d) = ⌈T/d⌉: the minimum token
// count that could theoretically finish total work T within deadline d,
// ignoring job structure. It is the baseline against which a policy's
// cluster impact is measured.
func Oracle(totalWork, deadline time.Duration) int {
	if deadline <= 0 {
		return 0
	}
	if totalWork <= 0 {
		return 0
	}
	return int(math.Ceil(float64(totalWork) / float64(deadline)))
}

// ImpactAboveOracle returns the fraction of the requested allocation that
// exceeded the oracle allocation: (Σ granted − Σ oracle)/Σ granted, clamped
// at 0. alloHours and oracleHours are allocation integrals (token-hours).
func ImpactAboveOracle(allocHours, oracleHours float64) float64 {
	if allocHours <= 0 {
		return 0
	}
	v := (allocHours - oracleHours) / allocHours
	if v < 0 {
		return 0
	}
	return v
}
