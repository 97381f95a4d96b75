package experiments

import "testing"

// The fleet robustness grid must render byte-identically at any grid
// parallelism: cells share one model cache and per-worker engines, and
// none of that sharing may leak into the results.
func TestFleetRobustnessBitIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet grid in -short mode")
	}
	var want string
	for _, par := range []int{1, 4, 8} {
		env := NewEnv(1)
		env.GridParallel = par
		res, err := FleetRobustness(env)
		if err != nil {
			t.Fatalf("FleetRobustness(parallel=%d): %v", par, err)
		}
		got := res.Render()
		if par == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("fleet grid differs at parallel=%d:\n%s\n--- want ---\n%s", par, got, want)
		}
	}
}

// fleetRow returns the cell for a scenario and discipline display name, or
// nil.
func fleetRow(r *FleetRobustnessResult, scenario, discipline string) *FleetRow {
	for i := range r.Rows {
		if r.Rows[i].Scenario == scenario && r.Rows[i].Discipline == discipline {
			return &r.Rows[i]
		}
	}
	return nil
}

// The headline acceptance claim: under overload plus a rack outage,
// guarded utility-greedy arbitration misses strictly fewer deadlines than
// FIFO admission, and never at a utility cost. Comparisons are paired —
// both disciplines face the identical offer streams.
func TestFleetRobustnessGuardedBeatsFIFOUnderOverloadOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet grid in -short mode")
	}
	env := NewEnv(1)
	res, err := FleetRobustness(env)
	if err != nil {
		t.Fatalf("FleetRobustness: %v", err)
	}
	const scenario = "load-3x/rack-outage"
	fifo := fleetRow(res, scenario, "fifo")
	guarded := fleetRow(res, scenario, "utility-greedy+guard")
	if fifo == nil || guarded == nil {
		t.Fatalf("grid is missing the %s cells:\n%s", scenario, res.Render())
	}
	if guarded.Missed >= fifo.Missed {
		t.Fatalf("guarded utility-greedy missed %d deadlines, FIFO %d — want strictly fewer:\n%s",
			guarded.Missed, fifo.Missed, res.Render())
	}
	if guarded.MeanUtility <= fifo.MeanUtility {
		t.Errorf("guarded utility-greedy utility %+.2f not above FIFO's %+.2f:\n%s",
			guarded.MeanUtility, fifo.MeanUtility, res.Render())
	}
	// Tally sanity across the whole grid.
	for _, row := range res.Rows {
		if row.Admitted+row.Rejected != row.Offers {
			t.Errorf("%s/%s: admitted %d + rejected %d != offers %d",
				row.Scenario, row.Discipline, row.Admitted, row.Rejected, row.Offers)
		}
		if row.Met+row.Missed != row.Offers {
			t.Errorf("%s/%s: met %d + missed %d != offers %d",
				row.Scenario, row.Discipline, row.Met, row.Missed, row.Offers)
		}
		misses := row.MissAdmission + row.MissArbitration + row.MissGuard + row.MissModel
		if misses != row.Missed {
			t.Errorf("%s/%s: attribution tallies %d don't cover %d misses",
				row.Scenario, row.Discipline, misses, row.Missed)
		}
	}
}
