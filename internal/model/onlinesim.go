package model

import (
	"fmt"
	"strconv"
	"time"

	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/sim"
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
// wherever a CPA is used. Its forward runs execute on a Builder's worker
// pool, the one the replay's C(p, a) builds use.
type OnlineSim struct {
	p    *profile.Profile
	runs int
	seed uint64
	par  int
	b    *Builder

	// Single-entry memo: the control loop queries the same state for every
	// candidate allocation, and its expected utility and quantiles read the
	// same samples. label names the state: "online", a 0 byte, 3 bytes per
	// stage of progress in 1/1000ths, then the elapsed whole seconds in
	// decimal. It is both the memo key and the forward runs' seed label. It
	// is built in scratch and replaced only when the state changes, so a
	// memo-hit query allocates nothing. The rounding makes the memo survive
	// tiny float noise within a tick. The memoized sample slices are sorted
	// ascending.
	label       string
	scratch     []byte
	memoSamples map[int][]time.Duration
}

// NewOnlineSim builds the online predictor; runs is the number of forward
// simulations per (state, allocation) query (default 7). The forward runs
// execute on b, the replay's Builder; a nil b gives the predictor a Builder
// of its own.
func NewOnlineSim(p *profile.Profile, runs int, seed uint64, b *Builder) (*OnlineSim, error) {
	if p == nil {
		return nil, fmt.Errorf("model: NewOnlineSim requires a profile")
	}
	if runs <= 0 {
		runs = 7
	}
	if b == nil {
		b = new(Builder)
	}
	return &OnlineSim{p: p, runs: runs, seed: seed, b: b, memoSamples: map[int][]time.Duration{}}, nil
}

// SetParallelism bounds the worker pool that executes the forward
// simulations of one query (0 or negative = GOMAXPROCS, the default).
// Predictions are bit-identical at any value: each forward run's seed
// depends only on (seed, state, alloc, run index), workers write disjoint
// result slots, and results are collected in run-index order.
// OnlineSim itself is not safe for concurrent queries; the knob parallelizes
// the simulations inside a single query.
func (o *OnlineSim) SetParallelism(n int) { o.par = n }

// refreshMemo rebuilds the state's label in scratch and, if the state
// changed, replaces the label and invalidates the memo.
func (o *OnlineSim) refreshMemo(st State) {
	buf := append(o.scratch[:0], "online\x00"...)
	for _, f := range st.FracDone {
		v := int(f * 1000)
		buf = append(buf, byte(v>>8), byte(v), ',')
	}
	buf = strconv.AppendInt(buf, int64(st.Elapsed/time.Second), 10)
	o.scratch = buf
	if string(buf) == o.label {
		return
	}
	o.label = string(buf)
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
	s := o.b.forward(sim.Config{Profile: o.p, Alloc: a, InitialFracDone: st.FracDone}, o.runs, o.par, o.seed, o.label)
	o.memoSamples[a] = s
	return s
}
