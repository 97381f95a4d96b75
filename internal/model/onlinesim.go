package model

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/jockeysim/jockey/internal/grid"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
)

// OnlineSim is the enhancement proposed in §4.4 of the paper: instead of
// indexing precomputed C(p, a) distributions through a progress indicator,
// it invokes the offline job simulator *at control time*, simulating forward
// from the job's actual per-stage completion state. This gives more precise
// control (no information is lost through the scalar progress index) at the
// cost of simulation work inside the control loop — the trade-off the paper
// describes when motivating the precomputed table.
//
// OnlineSim implements Predictor and can be swapped into the controller
// wherever a CPA is used.
type OnlineSim struct {
	p    *profile.Profile
	runs int
	seed uint64
	par  int

	// Single-entry memo: the control loop queries the same state for every
	// candidate allocation, and its expected utility and quantiles read the
	// same samples.
	// The state is identified by a fixed-size binary key (3 bytes per
	// stage + 8 bytes of elapsed seconds) built into a reused buffer, so a
	// memo-hit query performs no string building and no allocation; the
	// legacy string form, which seeds the forward runs, is rebuilt only
	// when the state actually changes (once per control tick). The
	// memoized sample slices are sorted ascending.
	memoKey     []byte
	keyScratch  []byte
	seedKey     string
	memoSamples map[int][]time.Duration

	// Per-worker reusable simulation engines plus result scratch; sized on
	// first use. Worker identity affects memory reuse only — seeds depend
	// on (seed, state, alloc, run index) and results are collected in run
	// order, so predictions are bit-identical at any parallelism.
	runners     []*sim.Runner
	completions []time.Duration
	succeeded   []bool
}

// NewOnlineSim builds the online predictor; runs is the number of forward
// simulations per (state, allocation) query (default 7).
func NewOnlineSim(p *profile.Profile, runs int, seed uint64) (*OnlineSim, error) {
	if p == nil {
		return nil, fmt.Errorf("model: NewOnlineSim requires a profile")
	}
	if runs <= 0 {
		runs = 7
	}
	return &OnlineSim{p: p, runs: runs, seed: seed, memoSamples: map[int][]time.Duration{}}, nil
}

// SetParallelism bounds the worker pool that executes the forward
// simulations of one query (0 or negative = GOMAXPROCS, the default).
// Predictions are bit-identical at any value: each forward run's seed
// depends only on (seed, state, alloc, run index), workers write disjoint
// result slots, and results are collected in run-index order.
// OnlineSim itself is not safe for concurrent queries; the knob parallelizes
// the simulations inside a single query.
func (o *OnlineSim) SetParallelism(n int) { o.par = n }

// refreshMemo recomputes the state key into the reused scratch buffer and,
// if the state changed, invalidates the memo and rebuilds the seed-label
// string. The rounding (1/1000 fractions, whole seconds) makes the memo
// survive tiny float noise within a tick; the seed string reproduces the
// pre-binary-key format byte for byte so derived seeds — and therefore
// every prediction — are unchanged.
func (o *OnlineSim) refreshMemo(st State) {
	buf := o.keyScratch[:0]
	for _, f := range st.FracDone {
		v := int(f * 1000)
		buf = append(buf, byte(v>>8), byte(v), ',')
	}
	secs := int64(st.Elapsed / time.Second)
	var sb [8]byte
	for i := range sb {
		sb[i] = byte(secs >> (8 * i))
	}
	stages := len(buf)
	buf = append(buf, sb[:]...)
	o.keyScratch = buf
	if bytes.Equal(buf, o.memoKey) {
		return
	}
	o.memoKey = append(o.memoKey[:0], buf...)
	o.seedKey = string(buf[:stages]) + strconv.Itoa(int(secs))
	clear(o.memoSamples)
}

// Samples implements Predictor: remaining-time samples for the state at
// allocation a, sorted ascending, simulating forward from the state's
// per-stage completion fractions. The returned slice is memoized and
// shared; callers must treat it as read-only.
func (o *OnlineSim) Samples(st State, a int) []time.Duration {
	if a < 1 {
		a = 1
	}
	o.refreshMemo(st)
	if s, ok := o.memoSamples[a]; ok {
		return s
	}
	workers := grid.Workers(o.par, o.runs)
	if len(o.runners) < workers {
		o.runners = append(o.runners, make([]*sim.Runner, workers-len(o.runners))...)
	}
	if cap(o.completions) < o.runs {
		o.completions = make([]time.Duration, o.runs)
		o.succeeded = make([]bool, o.runs)
	}
	completions := o.completions[:o.runs]
	succeeded := o.succeeded[:o.runs]
	clear(succeeded)
	aLabel := strconv.Itoa(a)
	// The runs never fail: a stalled one only leaves its slot unsucceeded.
	_ = grid.Run(o.runs, workers, func(worker, r int) error {
		rn := o.runners[worker]
		if rn == nil {
			rn = sim.NewRunner()
			o.runners[worker] = rn
		}
		seed := stats.DeriveSeed(o.seed, "online", o.seedKey, aLabel, strconv.Itoa(r))
		completion, err := rn.Completion(sim.Config{
			Profile:         o.p,
			Alloc:           a,
			Seed:            seed,
			InitialFracDone: st.FracDone,
		})
		if err != nil {
			// A stalled forward simulation means the state vector is
			// inconsistent with the plan; treat as "no information".
			return nil
		}
		completions[r] = completion
		succeeded[r] = true
		return nil
	})
	out := make([]time.Duration, 0, o.runs)
	for r := 0; r < o.runs; r++ {
		if succeeded[r] {
			out = append(out, completions[r])
		}
	}
	slices.Sort(out)
	o.memoSamples[a] = out
	return out
}
