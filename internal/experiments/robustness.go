package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/flight"
	"github.com/jockeysim/jockey/internal/grid"
	"github.com/jockeysim/jockey/internal/stats"
)

// RobustnessScenario is one cell of the perturbation grid: a set of faults
// injected into every run of the cell. Drift offsets are relative to the SLO
// job's start; outages and contention windows are on the cluster clock (the
// SLO job arrives at SLOJobStart).
type RobustnessScenario struct {
	Name        string
	Drifts      []cluster.StageDrift
	RackOutages []cluster.RackOutage
	Contention  []cluster.ContentionWindow
}

// DefaultRobustnessScenarios builds the grid used by the robustness
// experiment, scaled to the job's deadline d:
//
//   - calm: no perturbation (the guard must not hurt the common case);
//   - drift-2x: every stage's service times double 15% of the way to the
//     deadline — the canonical stale-model fault (the profile was collected
//     on healthy inputs, the run hits a skewed partition or slow dependency);
//   - rack-outage: a third of the machines vanish for d/3;
//   - contention: the scheduler honors only half the guarantee for the middle
//     half of the run (a tenant surge under token contention, §2.4);
//   - combined: all three at once, milder drift.
func DefaultRobustnessScenarios(deadline time.Duration) []RobustnessScenario {
	d := deadline
	drift := func(factor float64, at time.Duration) []cluster.StageDrift {
		return []cluster.StageDrift{{At: at, Stage: -1, Factor: factor}}
	}
	outage := []cluster.RackOutage{{
		At:           SLOJobStart + d/3,
		FirstMachine: 0,
		Machines:     10,
		Duration:     d / 3,
	}}
	contention := []cluster.ContentionWindow{{
		From: SLOJobStart + d/4,
		To:   SLOJobStart + 3*d/4,
		Frac: 0.5,
	}}
	return []RobustnessScenario{
		{Name: "calm"},
		{Name: "drift-2x", Drifts: drift(2.0, time.Duration(0.15*float64(d)))},
		{Name: "rack-outage", RackOutages: outage},
		{Name: "contention", Contention: contention},
		{Name: "combined",
			Drifts:      drift(1.6, time.Duration(0.4*float64(d))),
			RackOutages: outage,
			Contention:  contention,
		},
	}
}

// RobustnessVariants lists the compared policies: Jockey with and without the
// guard-rail layer, plus the paper's Amdahl and max-allocation baselines.
var RobustnessVariants = []PolicyKind{PolicyJockeyGuarded, PolicyJockey, PolicyAmdahl, PolicyMax}

// RobustnessRow aggregates one (scenario, policy) cell.
type RobustnessRow struct {
	Scenario  string
	Policy    string
	Runs, Met int
	MeanRel   float64 // mean completion/deadline
	MeanAbove float64 // mean allocation above oracle
	MeanChurn float64 // mean Σ|Δgranted| per run, tokens
	// Guard transition totals across the cell (guarded rows only).
	Reprofiles, Panics int
	// Counterfactual aggregates (flight level counterfactual only).
	// HindsightMiss counts runs that missed the deadline although some
	// constant allocation met it; MeanTokenRegret is the mean token-seconds
	// spent above the cheapest deadline-meeting constant allocation (met
	// runs); Attributed is the cell's dominant gap mechanism by summed
	// token-seconds ("" when no run had regret).
	HindsightMiss   int
	MeanTokenRegret float64
	Attributed      string
}

// MissRate is the fraction of runs that missed the deadline.
func (r RobustnessRow) MissRate() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.Runs-r.Met) / float64(r.Runs)
}

// RobustnessConfig parameterizes the robustness grid; the zero value runs
// job B with three seeds per cell and no flight recording.
type RobustnessConfig struct {
	// Job is the Table 2 job (default "B").
	Job string
	// SeedsPerCell is the paired runs per (scenario, policy) cell (default 3).
	SeedsPerCell int
	// Flight selects decision recording for every run of the grid; at
	// LevelCounterfactual each run also gets a hindsight regret report, the
	// rows gain regret columns, and Records carries the per-run files.
	Flight flight.Level
}

// RobustnessRecord is one run's flight record with its grid coordinates.
type RobustnessRecord struct {
	Scenario string
	Policy   string
	Seed     int
	Record   *flight.Record
}

// RobustnessResult is the guard-rail robustness experiment: deadline-miss
// rate and allocation churn across the perturbation grid, plus — when flight
// recording is on — hindsight regret per cell and per-run flight records.
type RobustnessResult struct {
	Job      string
	Deadline time.Duration
	Flight   flight.Level
	Rows     []RobustnessRow
	// Records holds one flight record per run, in grid task order (empty at
	// LevelNone).
	Records []RobustnessRecord
}

// RobustnessFlight runs the perturbation grid, with per-run decision flight
// recording at cfg.Flight. Every variant in a (scenario, seed) pair sees the
// identical cluster, background load and faults, so the comparison is
// paired. Input scale is pinned to 1 so the injected faults are the only
// source of model staleness. At LevelCounterfactual the hindsight replays
// are shared across policy variants through a single-flight cache: a
// replay's outcome depends only on (scenario, seed, alloc), not on which
// policy was recorded, so the paired grid costs one replay sweep per
// (scenario, seed) instead of four.
func RobustnessFlight(env *Env, cfg RobustnessConfig) (*RobustnessResult, error) {
	job := cfg.Job
	if job == "" {
		job = "B"
	}
	seedsPerCell := cfg.SeedsPerCell
	if seedsPerCell <= 0 {
		seedsPerCell = 3
	}
	short, _, err := env.Deadlines(job)
	if err != nil {
		return nil, err
	}
	scenarios := DefaultRobustnessScenarios(short)
	type cell struct {
		out Outcome
		rec *flight.Record
	}
	var replays grid.Cache[flight.ReplayOutcome]
	var tasks []func(x *Exec) (cell, error)
	for _, sc := range scenarios {
		for _, v := range RobustnessVariants {
			for s := 0; s < seedsPerCell; s++ {
				sc, v, s := sc, v, s
				tasks = append(tasks, func(x *Exec) (cell, error) {
					r := SLORun{
						Job:         job,
						Deadline:    short,
						Policy:      v,
						Seed:        stats.DeriveSeed(env.Seed, "robust", job, sc.Name, fmt.Sprint(s)),
						InputScale:  1,
						Drifts:      sc.Drifts,
						RackOutages: sc.RackOutages,
						Contention:  sc.Contention,
					}
					o, rec, err := env.RunFlight(x, r, FlightConfig{
						Level:     cfg.Flight,
						replayKey: fmt.Sprintf("robust/%s/%d", sc.Name, s),
						replays:   &replays,
					})
					return cell{out: o, rec: rec}, err
				})
			}
		}
	}
	results, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	out := &RobustnessResult{Job: job, Deadline: short, Flight: cfg.Flight}
	i := 0
	for _, sc := range scenarios {
		for _, v := range RobustnessVariants {
			row := RobustnessRow{Scenario: sc.Name, Policy: string(v)}
			var rels, aboves, churns, tokRegrets []float64
			gaps := newAttributionTally()
			for s := 0; s < seedsPerCell; s++ {
				o := results[i].out
				rec := results[i].rec
				i++
				row.Runs++
				if o.Met {
					row.Met++
				}
				rels = append(rels, o.RelCompletion)
				aboves = append(aboves, o.AboveOracle)
				churns = append(churns, float64(AllocChurn(o.Trace.Timeline)))
				for _, ev := range o.GuardEvents {
					switch ev.Kind {
					case control.GuardEventReprofile:
						row.Reprofiles++
					case control.GuardEventPanic:
						row.Panics++
					}
				}
				if rec != nil {
					out.Records = append(out.Records, RobustnessRecord{
						Scenario: sc.Name, Policy: string(v), Seed: s, Record: rec,
					})
					if cf := rec.Counterfactual; cf != nil {
						if cf.DeadlineRegret > 0 {
							row.HindsightMiss++
						}
						tokRegrets = append(tokRegrets, cf.TokenRegret)
						for _, sh := range cf.Attribution {
							gaps.add(sh.Mechanism, sh.GapTokenSeconds)
						}
					}
				}
			}
			row.MeanRel = stats.Mean(rels)
			row.MeanAbove = stats.Mean(aboves)
			row.MeanChurn = stats.Mean(churns)
			if len(tokRegrets) > 0 {
				row.MeanTokenRegret = stats.Mean(tokRegrets)
			}
			row.Attributed = gaps.dominant()
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// attributionTally sums gap token-seconds by mechanism, deterministically:
// insertion order is preserved, so dominant() never ranges over a map.
type attributionTally struct {
	order []string
	sums  map[string]float64
}

func newAttributionTally() *attributionTally {
	return &attributionTally{sums: map[string]float64{}}
}

func (t *attributionTally) add(mech string, tokenSeconds float64) {
	if _, ok := t.sums[mech]; !ok {
		t.order = append(t.order, mech)
	}
	t.sums[mech] += tokenSeconds
}

// dominant returns the mechanism with the largest summed gap (ties: first
// added, i.e. the analyzer's own largest-first order), or "".
func (t *attributionTally) dominant() string {
	best := ""
	for _, m := range t.order {
		if best == "" || t.sums[m] > t.sums[best] {
			best = m
		}
	}
	return best
}

// Render prints the robustness grid. With counterfactual flight recording
// on, three regret columns are appended: hmiss (runs whose deadline miss
// was avoidable in hindsight), tok-regret (mean token-seconds above the
// cheapest deadline-meeting constant allocation) and attributed (the cell's
// dominant gap mechanism). Without it, the output is byte-identical to the
// pre-flight renderer.
func (r *RobustnessResult) Render() string {
	counterfactual := r.Flight == flight.LevelCounterfactual
	headers := []string{"scenario", "policy", "met", "miss", "rel", "above", "churn", "guard"}
	title := fmt.Sprintf("Robustness: guard rails under injected faults (job %s, deadline %v)\n"+
		"(guard column: reprofiles/panics across the cell)", r.Job, r.Deadline)
	if counterfactual {
		headers = append(headers, "hmiss", "tok-regret", "attributed")
		title += "\n(hmiss: avoidable misses; tok-regret: mean token-seconds above the cheapest hindsight-met allocation)"
	}
	var rows [][]string
	for _, row := range r.Rows {
		cells := []string{
			row.Scenario,
			row.Policy,
			fmt.Sprintf("%d/%d", row.Met, row.Runs),
			pct(row.MissRate()),
			fmt.Sprintf("%.2f", row.MeanRel),
			pct(row.MeanAbove),
			fmt.Sprintf("%.0f", row.MeanChurn),
			fmt.Sprintf("%d/%d", row.Reprofiles, row.Panics),
		}
		if counterfactual {
			attributed := row.Attributed
			if attributed == "" {
				attributed = "-"
			}
			cells = append(cells,
				fmt.Sprintf("%d/%d", row.HindsightMiss, row.Runs),
				fmt.Sprintf("%.0f", row.MeanTokenRegret),
				attributed,
			)
		}
		rows = append(rows, cells)
	}
	return renderTable(title, headers, rows)
}
