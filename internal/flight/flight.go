// Package flight is the decision flight recorder: a zero-overhead-when-off
// capture of every control decision — the chosen allocation, the top-K
// alternative candidates with their predicted completion times and expected
// utilities, and which mechanism (raw model, hysteresis, dead zone, urgency
// boost, guard panic) determined the final grant — plus a
// counterfactual regret analyzer that replays a finished run under constant
// hindsight allocations and attributes any regret to a named mechanism
// ("model error vs. damping vs. guard intervention"). See DESIGN.md §12.
//
// Recording rides the control.Recorder hook: with no recorder installed
// (level none) the control loop takes its original path and allocates
// nothing extra; with one installed, the extra per-candidate predictions hit
// only pure or memoized predictors, so the decision trajectory is
// bit-identical either way (pinned by the experiments flight tests).
package flight

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/control"
)

// Level selects how much the flight recorder captures.
type Level int

const (
	// LevelNone records nothing: no recorder is installed and the control
	// loop runs its original, allocation-free path.
	LevelNone Level = iota
	// LevelDecisions records per-tick decisions, mechanisms and top-K
	// candidate evaluations.
	LevelDecisions
	// LevelCounterfactual additionally replays the finished run under
	// constant hindsight allocations and attaches a regret report.
	LevelCounterfactual
)

// String names the level as accepted by ParseLevel.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelDecisions:
		return "decisions"
	case LevelCounterfactual:
		return "counterfactual"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel parses a -flight-level flag value.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "none":
		return LevelNone, nil
	case "decisions":
		return LevelDecisions, nil
	case "counterfactual":
		return LevelCounterfactual, nil
	}
	return LevelNone, fmt.Errorf("flight: unknown level %q (want none, decisions or counterfactual)", s)
}

// SchemaVersion is the flight-record JSON schema version (the "schema"
// field). Bump only with a migration note in DESIGN.md §12.
const SchemaVersion = 1

// TopK is how many alternative candidates a tick keeps (the record's top_k
// field).
const TopK = 3

// Candidate is one retained candidate evaluation of a tick.
type Candidate struct {
	// Alloc is the candidate allocation (tokens).
	Alloc int `json:"alloc"`
	// Utility is the expected utility the argmax compared.
	Utility float64 `json:"utility"`
	// Predicted is the worst-case completion estimate at this allocation.
	Predicted time.Duration `json:"predicted_ns"`
}

// Tick is one recorded control decision.
type Tick struct {
	// At is the job's elapsed time at the tick.
	At time.Duration `json:"at_ns"`
	// Raw and Granted mirror control.Decision.
	Raw     int `json:"raw"`
	Granted int `json:"granted"`
	// Mechanism is the control.Mech* constant that determined the grant.
	Mechanism string `json:"mechanism"`
	// Mode is the guard mode that produced the decision ("" when unguarded).
	Mode string `json:"mode,omitempty"`
	// Deviation is the guard's staleness score at the tick.
	Deviation float64 `json:"deviation,omitempty"`
	// Predicted is the completion estimate at the granted allocation.
	Predicted time.Duration `json:"predicted_ns"`
	// Regret is the decision-time utility regret: the best candidate's
	// expected utility minus the granted allocation's, as evaluated by the
	// model at this tick (0 = the grant was the model's best option).
	Regret float64 `json:"regret"`
	// Candidates are the top-K evaluations, best first (utility descending,
	// smaller allocation on ties).
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Record is a run's complete flight record — the stable JSON schema written
// by WriteJSON (see json.go).
type Record struct {
	// Schema is SchemaVersion.
	Schema int `json:"schema"`
	// Job and Policy identify the recorded run.
	Job    string `json:"job"`
	Policy string `json:"policy,omitempty"`
	// Level is the recording level ("decisions" or "counterfactual").
	Level string `json:"level"`
	// Deadline is the run's SLO.
	Deadline time.Duration `json:"deadline_ns"`
	// TopK is how many candidates each tick retains.
	TopK int `json:"top_k"`
	// Ticks are the decisions in time order.
	Ticks []Tick `json:"ticks"`
	// Counterfactual is the hindsight regret report (counterfactual level
	// only).
	Counterfactual *Regret `json:"counterfactual,omitempty"`
}

// Config parameterizes a Recorder.
type Config struct {
	// Job and Policy label the record.
	Job    string
	Policy string
	// Level stamps the record's level field (default LevelDecisions).
	Level Level
	// Deadline is the run's SLO (stored for the analyzer and readers).
	Deadline time.Duration
}

// Recorder implements control.Recorder, accumulating a Record. Install it
// with control.Recordable.SetRecorder (Controller and Guard both qualify).
// A Recorder is single-run, single-goroutine state: use one per run.
type Recorder struct {
	rec Record
}

// NewRecorder builds a recorder for one run.
func NewRecorder(cfg Config) *Recorder {
	lvl := cfg.Level
	if lvl == LevelNone {
		lvl = LevelDecisions
	}
	return &Recorder{rec: Record{
		Schema:   SchemaVersion,
		Job:      cfg.Job,
		Policy:   cfg.Policy,
		Level:    lvl.String(),
		Deadline: cfg.Deadline,
		TopK:     TopK,
	}}
}

// RecordDecision implements control.Recorder. The borrowed record is copied;
// nothing aliases the emitter's scratch buffers after the call returns.
func (r *Recorder) RecordDecision(d *control.DecisionRecord) {
	r.rec.Ticks = append(r.rec.Ticks, Tick{
		At:         d.At,
		Raw:        d.Raw,
		Granted:    d.Granted,
		Mechanism:  d.Mechanism,
		Mode:       d.Mode,
		Deviation:  d.Deviation,
		Predicted:  d.Predicted,
		Regret:     decisionRegret(d),
		Candidates: topK(d.Candidates, TopK),
	})
}

// Record returns the accumulated record. The recorder retains ownership;
// callers serialize or analyze it after the run finishes.
func (r *Recorder) Record() *Record { return &r.rec }

// decisionRegret is the tick's utility gap between the best candidate and
// the granted allocation, both as the model evaluated them. The granted
// allocation's utility is looked up at the smallest candidate ≥ the grant
// (the grid is ascending; guard overrides can grant between evaluations).
//
//jockey:hotpath
func decisionRegret(d *control.DecisionRecord) float64 {
	if len(d.Candidates) == 0 {
		return 0
	}
	bestU := d.Candidates[0].Utility
	for _, c := range d.Candidates[1:] {
		if c.Utility > bestU {
			bestU = c.Utility
		}
	}
	gU := d.Candidates[len(d.Candidates)-1].Utility
	for _, c := range d.Candidates {
		if c.Alloc >= d.Granted {
			gU = c.Utility
			break
		}
	}
	if reg := bestU - gU; reg > 0 {
		return reg
	}
	return 0
}

// topK selects the k best candidates (utility descending, smaller
// allocation on ties) without reordering the borrowed input.
func topK(cands []control.CandidateEval, k int) []Candidate {
	if len(cands) == 0 || k <= 0 {
		return nil
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]Candidate, 0, k)
	used := make([]bool, len(cands))
	for n := 0; n < k; n++ {
		best := -1
		for i, c := range cands {
			if used[i] {
				continue
			}
			if best == -1 || betterCandidate(c, cands[best]) {
				best = i
			}
		}
		used[best] = true
		out = append(out, Candidate{
			Alloc:     cands[best].Alloc,
			Utility:   cands[best].Utility,
			Predicted: cands[best].Predicted,
		})
	}
	return out
}

//jockey:hotpath
func betterCandidate(a, b control.CandidateEval) bool {
	if a.Utility != b.Utility {
		return a.Utility > b.Utility
	}
	return a.Alloc < b.Alloc
}

// SpanCandidates picks up to n allocations spanning the ascending candidate
// grid, always including the smallest and largest — the default hindsight
// space for the counterfactual analyzer. It returns a fresh slice.
func SpanCandidates(grid []int, n int) []int {
	if len(grid) == 0 || n <= 0 {
		return nil
	}
	if n == 1 {
		return []int{grid[len(grid)-1]}
	}
	if n >= len(grid) {
		return append([]int(nil), grid...)
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		j := i * (len(grid) - 1) / (n - 1)
		a := grid[j]
		if len(out) == 0 || out[len(out)-1] != a {
			out = append(out, a)
		}
	}
	return out
}
