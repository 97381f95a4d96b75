package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// ExtensionRow compares the precomputed-table controller with the online
// forward-simulation controller on one job.
type ExtensionRow struct {
	Job             string
	Runs            int
	TableMet        int
	OnlineMet       int
	TableRel        float64 // mean completion/deadline
	OnlineRel       float64
	TableAbove      float64 // mean allocation above oracle
	OnlineAbove     float64
	TableDecisionUs float64 // mean wall-clock per control decision, µs
	OnlineDecision  float64
}

// ExtensionResult is the E1 extension experiment (not in the paper's
// evaluation; it quantifies the §4.4 proposal of integrating the simulator
// with the online phase).
type ExtensionResult struct {
	Rows []ExtensionRow
}

// OnlineVsTable runs each job under the Jockey controller twice — once
// indexing the precomputed C(p, a) table, once re-simulating forward from
// the live state at every decision — and compares SLO outcomes, cluster
// impact and decision cost. Decision cost is wall clock per run, so the
// runs stay serial, one at a time on one reused Exec: concurrent runs
// would bill each other's CPU time.
func OnlineVsTable(env *Env, jobs []string, seedsPerJob int) (*ExtensionResult, error) {
	if len(jobs) == 0 {
		jobs = []string{"B", "E"}
	}
	if seedsPerJob <= 0 {
		seedsPerJob = 2
	}
	out := &ExtensionResult{}
	x := NewExec()
	for _, job := range jobs {
		short, _, err := env.Deadlines(job)
		if err != nil {
			return nil, err
		}
		row := ExtensionRow{Job: job}
		var tRel, oRel, tAbove, oAbove, tCost, oCost []float64
		for s := 0; s < seedsPerJob; s++ {
			seed := stats.DeriveSeed(env.Seed, "ext-online", job, fmt.Sprint(s))
			for _, pol := range []PolicyKind{PolicyJockey, PolicyJockeyOnline} {
				start := time.Now()
				o, err := env.RunExec(x, SLORun{
					Job:      job,
					Deadline: short,
					Policy:   pol,
					Seed:     seed,
				})
				elapsed := time.Since(start)
				if err != nil {
					return nil, err
				}
				n := len(o.Trace.Timeline)
				if n == 0 {
					n = 1
				}
				perDecision := float64(elapsed.Microseconds()) / float64(n)
				if pol == PolicyJockeyOnline {
					row.Runs++
					if o.Met {
						row.OnlineMet++
					}
					oRel = append(oRel, o.RelCompletion)
					oAbove = append(oAbove, o.AboveOracle)
					oCost = append(oCost, perDecision)
				} else {
					if o.Met {
						row.TableMet++
					}
					tRel = append(tRel, o.RelCompletion)
					tAbove = append(tAbove, o.AboveOracle)
					tCost = append(tCost, perDecision)
				}
			}
		}
		row.TableRel = stats.Mean(tRel)
		row.OnlineRel = stats.Mean(oRel)
		row.TableAbove = stats.Mean(tAbove)
		row.OnlineAbove = stats.Mean(oAbove)
		row.TableDecisionUs = stats.Mean(tCost)
		row.OnlineDecision = stats.Mean(oCost)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the extension comparison.
func (e *ExtensionResult) Render() string {
	var rows [][]string
	for _, r := range e.Rows {
		rows = append(rows, []string{
			r.Job,
			fmt.Sprintf("%d/%d", r.TableMet, r.Runs),
			fmt.Sprintf("%d/%d", r.OnlineMet, r.Runs),
			fmt.Sprintf("%.2f", r.TableRel),
			fmt.Sprintf("%.2f", r.OnlineRel),
			pct(r.TableAbove),
			pct(r.OnlineAbove),
			fmt.Sprintf("%.0f", r.TableDecisionUs),
			fmt.Sprintf("%.0f", r.OnlineDecision),
		})
	}
	return renderTable(
		"Extension E1: precomputed C(p,a) table vs online forward simulation (§4.4 proposal)\n"+
			"(decision cost includes the whole run divided by control ticks; wall clock, µs)",
		[]string{"job", "table met", "online met", "table rel", "online rel",
			"table above", "online above", "table µs/dec", "online µs/dec"},
		rows)
}
