package experiments

import (
	"fmt"

	"github.com/jockeysim/jockey/internal/flight"
	"github.com/jockeysim/jockey/internal/grid"
)

// replayCandidates is how many constant allocations the counterfactual
// analyzer replays, spanning the policy's candidate grid.
const replayCandidates = 6

// FlightConfig tunes decision flight recording on top of an SLORun.
type FlightConfig struct {
	// Level selects recording depth (LevelNone returns no record).
	Level flight.Level
	// replayKey and replays, when both set, share replay outcomes across
	// runs through a single-flight cache. A replay's outcome depends only on
	// (job, deadline, seed, faults, alloc) — not on the recorded policy — so
	// grids comparing policy variants on paired seeds reuse each other's
	// replays.
	replayKey string
	replays   *grid.Cache[flight.ReplayOutcome]
}

// RunFlight is RunExec with the decision flight recorder attached: it
// returns the run's outcome plus its flight record (nil at LevelNone). At
// LevelCounterfactual the finished run is replayed under constant hindsight
// allocations — on the same reusable engine, so replays recycle the arenas —
// and the regret report is attached to the record.
func (e *Env) RunFlight(x *Exec, r SLORun, fc FlightConfig) (Outcome, *flight.Record, error) {
	if fc.Level == flight.LevelNone {
		o, err := e.RunExec(x, r)
		return o, nil, err
	}
	rec := flight.NewRecorder(flight.Config{
		Job:      r.Job,
		Policy:   string(r.Policy),
		Level:    fc.Level,
		Deadline: r.Deadline,
	})
	r.Flight = rec
	o, err := e.RunExec(x, r)
	if err != nil {
		return Outcome{}, nil, err
	}
	record := rec.Record()
	if fc.Level == flight.LevelCounterfactual {
		jk, err := e.Runtime(r.Job, r.Knobs.Indicator)
		if err != nil {
			return Outcome{}, nil, err
		}
		cands := flight.SpanCandidates(jk.Grid(), replayCandidates)
		actual := flight.ReplayOutcome{
			Completion:        o.Completion,
			Met:               o.Met,
			AllocTokenSeconds: o.AllocTokenSeconds,
		}
		reg, err := flight.Counterfactual(record.Ticks, actual, cands, e.flightReplayer(x, r, fc))
		if err != nil {
			return Outcome{}, nil, err
		}
		record.Counterfactual = reg
	}
	return o, record, nil
}

// flightReplayer re-executes r with a constant allocation, all seeds and
// faults identical. With a shared replay cache configured, outcomes are
// computed once per (replayKey, alloc) across the whole grid.
func (e *Env) flightReplayer(x *Exec, r SLORun, fc FlightConfig) flight.Replayer {
	run := func(alloc int) (flight.ReplayOutcome, error) {
		rr := r
		rr.Flight = nil
		rr.TaskEvents = false
		rr.fixedAlloc = alloc
		o, err := e.RunExec(x, rr)
		if err != nil {
			return flight.ReplayOutcome{}, err
		}
		return flight.ReplayOutcome{
			Alloc:             alloc,
			Completion:        o.Completion,
			Met:               o.Met,
			AllocTokenSeconds: o.AllocTokenSeconds,
		}, nil
	}
	if fc.replays == nil || fc.replayKey == "" {
		return run
	}
	return func(alloc int) (flight.ReplayOutcome, error) {
		return fc.replays.Get(fmt.Sprintf("%s/a%d", fc.replayKey, alloc), func() (flight.ReplayOutcome, error) {
			return run(alloc)
		})
	}
}
