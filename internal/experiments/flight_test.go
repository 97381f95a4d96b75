package experiments

import (
	"bytes"
	"testing"

	"github.com/jockeysim/jockey/internal/flight"
	"github.com/jockeysim/jockey/internal/stats"
)

// flightDriftRun is the canonical recorded run: job B, guarded Jockey, 2×
// mid-run drift — the scenario where every mechanism (hysteresis, dead zone,
// re-profiling, panic) has a chance to fire.
func flightDriftRun(env *Env, t *testing.T) SLORun {
	t.Helper()
	short, _, err := env.Deadlines("B")
	if err != nil {
		t.Fatal(err)
	}
	return SLORun{
		Job:        "B",
		Deadline:   short,
		Policy:     PolicyJockeyGuarded,
		Seed:       stats.DeriveSeed(env.Seed, "robust", "B", "drift-2x", "0"),
		InputScale: 1,
		Drifts:     driftScenario(short),
	}
}

func flightJSON(t *testing.T, rec *flight.Record) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFlightGoldenAcrossParallelismAndReuse pins the flight record — ticks,
// candidates, replays, regret, attribution — byte-identical across worker
// pool widths and across fresh-vs-reused cluster engines. The record is
// derived state of the run; if it ever depends on scheduling or arena
// history, the determinism contract is broken.
func TestFlightGoldenAcrossParallelismAndReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three runtime caches")
	}
	fc := FlightConfig{Level: flight.LevelCounterfactual}
	var golden []byte
	for _, par := range []int{1, 4, 8} {
		env := NewEnv(7)
		env.Parallelism = par
		env.GridParallel = par
		r := flightDriftRun(env, t)
		x := NewExec()
		_, fresh, err := env.RunFlight(x, r, fc)
		if err != nil {
			t.Fatal(err)
		}
		freshJSON := flightJSON(t, fresh)
		// Second pass on the same Exec replays through recycled arenas.
		_, reused, err := env.RunFlight(x, r, fc)
		if err != nil {
			t.Fatal(err)
		}
		reusedJSON := flightJSON(t, reused)
		if !bytes.Equal(freshJSON, reusedJSON) {
			t.Fatalf("par %d: flight record differs between fresh and reused engines:\n%s\nvs\n%s",
				par, freshJSON, reusedJSON)
		}
		if golden == nil {
			golden = freshJSON
			continue
		}
		if !bytes.Equal(golden, freshJSON) {
			t.Fatalf("par %d: flight record differs from par 1:\n%s\nvs\n%s", par, golden, freshJSON)
		}
	}
}

// TestFlightRecordingDoesNotPerturb pins the zero-interference contract
// documented on SLORun.Flight: attaching the recorder must not change the
// run — same completion, same grants, same guard transitions. Under
// jockey-online a recorded tick simulates every candidate while an
// unrecorded one stops at the first that reaches the curve's maximum
// utility, so the online run checks that the extra forward simulations
// change nothing either.
func TestFlightRecordingDoesNotPerturb(t *testing.T) {
	env := sharedEnv
	for _, pol := range []PolicyKind{PolicyJockeyGuarded, PolicyJockeyOnline} {
		t.Run(string(pol), func(t *testing.T) {
			r := flightDriftRun(env, t)
			r.Policy = pol
			x := NewExec()
			base, err := env.RunExec(x, r)
			if err != nil {
				t.Fatal(err)
			}
			got, rec, err := env.RunFlight(x, r, FlightConfig{Level: flight.LevelDecisions})
			if err != nil {
				t.Fatal(err)
			}
			if got.Completion != base.Completion || got.Met != base.Met ||
				got.AllocTokenSeconds != base.AllocTokenSeconds {
				t.Errorf("recording changed the outcome: %v/%v/%v vs %v/%v/%v",
					got.Completion, got.Met, got.AllocTokenSeconds,
					base.Completion, base.Met, base.AllocTokenSeconds)
			}
			if len(got.GuardEvents) != len(base.GuardEvents) {
				t.Errorf("recording changed guard activity: %d vs %d events",
					len(got.GuardEvents), len(base.GuardEvents))
			}
			if len(got.Trace.Timeline) != len(base.Trace.Timeline) {
				t.Fatalf("recording changed the timeline: %d vs %d points",
					len(got.Trace.Timeline), len(base.Trace.Timeline))
			}
			for i := range base.Trace.Timeline {
				if got.Trace.Timeline[i] != base.Trace.Timeline[i] {
					t.Errorf("timeline point %d diverged: %+v vs %+v",
						i, got.Trace.Timeline[i], base.Trace.Timeline[i])
				}
			}
			if rec == nil || len(rec.Ticks) == 0 {
				t.Fatal("no flight record for a recorded run")
			}
			// Every tick's grant must match the timeline the cluster observed.
			for i, tick := range rec.Ticks {
				if tick.Mechanism == "" {
					t.Errorf("tick %d has no mechanism", i)
				}
			}
		})
	}
}

// TestFlightReplayExactAtFixedAlloc is the replay-exactness proof: a run that
// itself used a constant allocation, counterfactually replayed at that same
// allocation, reproduces its own outcome bit-identically — so both regret
// components are exactly 0, not merely small.
func TestFlightReplayExactAtFixedAlloc(t *testing.T) {
	env := sharedEnv
	short, _, err := env.Deadlines("B")
	if err != nil {
		t.Fatal(err)
	}
	const alloc = 54
	r := SLORun{
		Job:        "B",
		Deadline:   short,
		Policy:     PolicyJockey,
		Seed:       11,
		InputScale: 1,
		fixedAlloc: alloc,
	}
	x := NewExec()
	o, err := env.RunExec(x, r)
	if err != nil {
		t.Fatal(err)
	}
	actual := flight.ReplayOutcome{
		Completion:        o.Completion,
		Met:               o.Met,
		AllocTokenSeconds: o.AllocTokenSeconds,
	}
	reg, err := flight.Counterfactual(nil, actual, []int{alloc}, env.flightReplayer(x, r, FlightConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	rp := reg.Replays[0]
	if rp.Completion != o.Completion || rp.Met != o.Met || rp.AllocTokenSeconds != o.AllocTokenSeconds {
		t.Fatalf("replay at the run's own allocation diverged: %+v vs outcome %v/%v/%v",
			rp, o.Completion, o.Met, o.AllocTokenSeconds)
	}
	if reg.DeadlineRegret != 0 || reg.TokenRegret != 0 {
		t.Errorf("regret against the run itself = %v/%v, want exactly 0/0",
			reg.DeadlineRegret, reg.TokenRegret)
	}
}

// TestRobustnessFlightAttributesDriftMiss is the PR's acceptance criterion:
// with counterfactual recording on, the robustness grid must attribute at
// least one guarded-vs-unguarded miss difference to a named mechanism.
func TestRobustnessFlightAttributesDriftMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full robustness grid with hindsight replays")
	}
	res, err := RobustnessFlight(sharedEnv, RobustnessConfig{
		Job:          "B",
		SeedsPerCell: 1,
		Flight:       flight.LevelCounterfactual,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := len(DefaultRobustnessScenarios(res.Deadline)) * len(RobustnessVariants)
	if len(res.Records) != wantRecords {
		t.Fatalf("records = %d, want %d", len(res.Records), wantRecords)
	}
	for _, fr := range res.Records {
		if fr.Record.Counterfactual == nil {
			t.Fatalf("%s/%s/%d: no counterfactual section", fr.Scenario, fr.Policy, fr.Seed)
		}
		if err := fr.Record.Validate(); err != nil {
			t.Errorf("%s/%s/%d: invalid record: %v", fr.Scenario, fr.Policy, fr.Seed, err)
		}
	}
	byCell := map[[2]string]RobustnessRow{}
	for _, row := range res.Rows {
		byCell[[2]string{row.Scenario, row.Policy}] = row
	}
	// Under drift, runs that miss while the guard's variant (or a hindsight
	// constant allocation) meets must be flagged avoidable and attributed.
	attributed := 0
	for cell, row := range byCell {
		if row.HindsightMiss > 0 {
			if row.Attributed == "" {
				t.Errorf("%v: %d avoidable misses but no attributed mechanism", cell, row.HindsightMiss)
			}
			attributed++
		}
		if row.Met == row.Runs && row.HindsightMiss != 0 {
			t.Errorf("%v: all runs met but hmiss = %d", cell, row.HindsightMiss)
		}
	}
	drifted := byCell[[2]string{"drift-2x", "jockey"}]
	guarded := byCell[[2]string{"drift-2x", "jockey-guarded"}]
	t.Logf("drift-2x: unguarded met %d/%d (hmiss %d, attributed %q), guarded met %d/%d",
		drifted.Met, drifted.Runs, drifted.HindsightMiss, drifted.Attributed,
		guarded.Met, guarded.Runs)
	if attributed == 0 {
		t.Error("no cell in the whole grid had an avoidable, attributed miss")
	}
	out := res.Render()
	for _, want := range []string{"hmiss", "tok-regret", "attributed"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRobustnessLevelNoneUnchanged pins that the zero-value config keeps the
// legacy shape: no records, no regret columns, render without regret headers.
func TestRobustnessLevelNoneUnchanged(t *testing.T) {
	res, err := RobustnessFlight(sharedEnv, RobustnessConfig{Job: "B", SeedsPerCell: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Errorf("level none produced %d flight records", len(res.Records))
	}
	out := res.Render()
	for _, banned := range []string{"hmiss", "tok-regret", "attributed"} {
		if bytes.Contains([]byte(out), []byte(banned)) {
			t.Errorf("level-none render leaked regret column %q:\n%s", banned, out)
		}
	}
}
