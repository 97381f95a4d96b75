package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/fleet"
	"github.com/jockeysim/jockey/internal/stats"
)

// fleetDiscipline is one arbitration variant under comparison.
type fleetDiscipline struct {
	Arb     fleet.Arbitration
	Guarded bool
}

func (d fleetDiscipline) name() string {
	if d.Guarded {
		return string(d.Arb) + "+guard"
	}
	return string(d.Arb)
}

// fleetDisciplines is the comparison set: the static FIFO baseline,
// deadline-blind fair sharing, marginal-utility water-filling, and
// water-filling with the guard-panic containment layer.
var fleetDisciplines = []fleetDiscipline{
	{fleet.FIFO, false},
	{fleet.FairShare, false},
	{fleet.UtilityGreedy, false},
	{fleet.UtilityGreedy, true},
}

// fleetLoads × fleetFaults spans the robustness grid: nominal and 3×
// arrival pressure, against a calm cluster, a 11/20-machine rack outage,
// and mid-run service-time drift on every 4th job.
var fleetLoads = []struct {
	name   string
	factor float64
}{
	{"load-1x", 1},
	{"load-3x", 3},
}

var fleetFaults = []struct {
	name   string
	outage bool
	drift  bool
}{
	{"calm", false, false},
	{"rack-outage", true, false},
	{"drift", false, true},
}

// fleetReps is how many seeded replays are aggregated per grid cell. The
// same per-rep fleet seeds are reused across disciplines, so comparisons
// are paired: every discipline faces the identical offer stream.
const fleetReps = 3

// FleetRow aggregates one (scenario, discipline) cell.
type FleetRow struct {
	Scenario   string
	Discipline string
	Offers     int
	Admitted   int
	Rejected   int
	Met        int
	Missed     int
	// MeanUtility is the aggregate fleet utility, averaged over reps.
	MeanUtility float64
	// Deferrals counts admission deferrals across reps.
	Deferrals int
	// Miss attribution tallies across reps (admission / arbitration /
	// guard / model).
	MissAdmission, MissArbitration, MissGuard, MissModel int
}

// FleetRobustnessResult is the full grid.
type FleetRobustnessResult struct {
	Rows []FleetRow
}

// FleetRobustness sweeps load factor × fault regime × arbitration
// discipline over deterministic multi-job fleet replays (internal/fleet)
// and reports deadline misses, aggregate utility, and per-mechanism miss
// attribution. All cells share one shape-keyed fleet.ModelCache — the
// cross-job model store — and each grid worker reuses its Exec's cluster
// engine, so the grid exercises exactly the sharing the fleet arbiter is
// built around. Output is bit-identical at any GridParallel.
func FleetRobustness(env *Env) (*FleetRobustnessResult, error) {
	models := fleet.NewModelCache(stats.DeriveSeed(env.Seed, "fleet-models"))
	models.SetParallelism(env.Parallelism)

	type cell struct {
		scenario, discipline string
	}
	type repOut struct {
		cell cell
		res  *fleet.Result
	}
	var tasks []func(x *Exec) (repOut, error)
	for _, load := range fleetLoads {
		for _, fault := range fleetFaults {
			scenario := load.name + "/" + fault.name
			for _, d := range fleetDisciplines {
				for rep := 0; rep < fleetReps; rep++ {
					load, fault, d, rep := load, fault, d, rep
					key := fmt.Sprintf("fleet/%s/%s/%d", scenario, d.name(), rep)
					tasks = append(tasks, func(x *Exec) (repOut, error) {
						cfg := fleet.Config{
							// Per-rep seeds are shared across scenarios and
							// disciplines: comparisons are paired on the
							// same offer stream.
							Seed:        stats.DeriveSeed(env.Seed, "fleet-rep", fmt.Sprint(rep)),
							Arrivals:    16,
							LoadFactor:  load.factor,
							Budget:      60,
							Arbitration: d.Arb,
							Guarded:     d.Guarded,
							Models:      models,
							Engine:      x.engine,
						}
						if fault.outage {
							cfg.RackOutages = []cluster.RackOutage{{
								At: 12 * time.Minute, FirstMachine: 0, Machines: 11,
								Duration: 20 * time.Minute,
							}}
						}
						if fault.drift {
							cfg.DriftEvery = 4
						}
						res, err := fleet.Run(cfg)
						if err != nil {
							return repOut{}, fmt.Errorf("%s: %w", key, err)
						}
						return repOut{cell: cell{scenario, d.name()}, res: res}, nil
					})
				}
			}
		}
	}
	outs, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}

	// Aggregate reps per cell, preserving task order (no map iteration).
	result := &FleetRobustnessResult{}
	idx := make(map[cell]int)
	for _, out := range outs {
		i, ok := idx[out.cell]
		if !ok {
			i = len(result.Rows)
			idx[out.cell] = i
			result.Rows = append(result.Rows, FleetRow{
				Scenario:   out.cell.scenario,
				Discipline: out.cell.discipline,
			})
		}
		row := &result.Rows[i]
		res := out.res
		row.Offers += len(res.Jobs)
		row.Admitted += res.Admitted
		row.Rejected += res.Rejected
		row.Met += res.Met
		row.Missed += res.Missed
		row.MeanUtility += res.AggUtility / fleetReps
		for _, rec := range res.Jobs {
			row.Deferrals += rec.Deferrals
			switch rec.Attribution {
			case "admission":
				row.MissAdmission++
			case "arbitration":
				row.MissArbitration++
			case "guard":
				row.MissGuard++
			case "model":
				row.MissModel++
			}
		}
	}
	return result, nil
}

// Render prints the grid with per-mechanism miss attribution.
func (r *FleetRobustnessResult) Render() string {
	headers := []string{
		"scenario", "arbitration", "offers", "admitted", "rejected",
		"met", "missed", "utility", "defers", "miss: adm/arb/grd/mdl",
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scenario, row.Discipline,
			fmt.Sprint(row.Offers), fmt.Sprint(row.Admitted), fmt.Sprint(row.Rejected),
			fmt.Sprint(row.Met), fmt.Sprint(row.Missed),
			fmt.Sprintf("%+.1f", row.MeanUtility),
			fmt.Sprint(row.Deferrals),
			fmt.Sprintf("%d/%d/%d/%d", row.MissAdmission, row.MissArbitration, row.MissGuard, row.MissModel),
		})
	}
	var b strings.Builder
	b.WriteString(renderTable(
		fmt.Sprintf("Fleet arbitration robustness (%d offers × %d reps per cell, paired seeds)",
			16, fleetReps),
		headers, rows))
	return b.String()
}
