package model

import (
	"time"

	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
)

// Amdahl is the paper's modified Amdahl's-Law predictor (§4.1): the
// remaining completion time at allocation a is estimated as
//
//	C(f, a) = S_t + P_t / a
//
// where S_t = max over unfinished stages of (1 − f_s)·l_s + L_s is the
// remaining critical path, and P_t = Σ over unfinished stages of
// (1 − f_s)·T_s is the remaining aggregate CPU time.
//
// It is deterministic — unlike the simulator-based CPA it captures no
// variance from outliers, failures or barriers, which is why the paper's
// "Jockey w/o simulator" baseline under-provisions and misses deadlines.
//
// Samples writes into a field, so an Amdahl is built per policy and never
// shared across goroutines.
type Amdahl struct {
	p *profile.Profile
	// cp holds the precomputed critical-path vectors so the per-tick
	// Estimate never touches the allocator.
	cp progress.CriticalPath
	// sample is the one-element remaining-time sample Samples returns.
	sample [1]time.Duration
}

// NewAmdahl builds the analytic predictor from a job profile.
func NewAmdahl(p *profile.Profile) *Amdahl {
	return &Amdahl{p: p, cp: progress.NewCriticalPath(p)}
}

// Estimate returns the point estimate S_t + P_t/a.
func (m *Amdahl) Estimate(fs []float64, a int) time.Duration {
	if a < 1 {
		a = 1
	}
	st := m.cp.Remaining(fs)
	var pt time.Duration
	// Stages is a slice, so this float accumulation runs in stage-index
	// order every time; keep it that way — a map here would make P_t
	// depend on iteration order (see TestAmdahlBitIdenticalAcrossConstructions).
	for s, sp := range m.p.Stages {
		f := 0.0
		if fs != nil && s < len(fs) {
			f = fs[s]
		}
		if f >= 1 {
			continue
		}
		pt += time.Duration(float64(sp.TotalWork) * (1 - f))
	}
	return st + pt/time.Duration(a)
}

// Samples implements Predictor. The analytic model is a point estimate, so
// the sample is the one value Estimate returns, and every quantile reads it.
func (m *Amdahl) Samples(st State, a int) []time.Duration {
	m.sample[0] = m.Estimate(st.FracDone, a)
	return m.sample[:]
}
