package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// driftScenario is the acceptance scenario of the guard-rail work: a 2×
// all-stage runtime drift injected 15% of the way to the deadline, early
// enough that most of the run executes under the drifted regime.
func driftScenario(deadline time.Duration) []cluster.StageDrift {
	return []cluster.StageDrift{{At: time.Duration(0.15 * float64(deadline)), Stage: -1, Factor: 2.0}}
}

// TestGuardBeatsUnguardedUnderDrift is the PR's acceptance criterion: under
// an injected 2× mid-run stage-runtime drift, the guarded controller's
// deadline-miss rate is strictly lower than the unguarded controller's at an
// equal token budget (same candidate grid, same cluster, same seeds).
func TestGuardBeatsUnguardedUnderDrift(t *testing.T) {
	env := sharedEnv
	short, _, err := env.Deadlines("B")
	if err != nil {
		t.Fatal(err)
	}
	drift := driftScenario(short)
	var guardedMiss, unguardedMiss int
	const seeds = 4
	for s := 0; s < seeds; s++ {
		seed := stats.DeriveSeed(env.Seed, "robust", "B", "drift-2x", fmt.Sprint(s))
		for _, pol := range []PolicyKind{PolicyJockey, PolicyJockeyGuarded} {
			guarded := pol == PolicyJockeyGuarded
			o, err := env.RunExec(NewExec(), SLORun{
				Job:        "B",
				Deadline:   short,
				Policy:     pol,
				Seed:       seed,
				InputScale: 1, // isolate the injected drift
				Drifts:     drift,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !o.Met {
				if guarded {
					guardedMiss++
				} else {
					unguardedMiss++
				}
			}
			if guarded && len(o.GuardEvents) == 0 {
				t.Errorf("seed %d: guard never reacted to a 2x drift", s)
			}
		}
	}
	t.Logf("misses over %d seeds: guarded=%d unguarded=%d", seeds, guardedMiss, unguardedMiss)
	if guardedMiss >= unguardedMiss {
		t.Errorf("guarded controller must miss strictly less than unguarded under drift: %d vs %d",
			guardedMiss, unguardedMiss)
	}
}

// TestGuardedRunDeterministicAcrossParallelism: guard-rail behavior (rebuild
// seeds, guard transitions, allocation trajectory) must be bit-identical at
// any worker-pool width, since rebuild seeds derive from a generation
// counter, not from scheduling.
func TestGuardedRunDeterministicAcrossParallelism(t *testing.T) {
	type key struct{ par int }
	outcomes := map[key]Outcome{}
	for _, par := range []int{1, 4} {
		env := NewEnv(7) // same master seed as sharedEnv, fresh caches
		env.Parallelism = par
		short, _, err := env.Deadlines("B")
		if err != nil {
			t.Fatal(err)
		}
		o, err := env.RunExec(NewExec(), SLORun{
			Job:        "B",
			Deadline:   short,
			Policy:     PolicyJockeyGuarded,
			Seed:       stats.DeriveSeed(env.Seed, "robust", "B", "drift-2x", "0"),
			InputScale: 1,
			Drifts:     driftScenario(short),
		})
		if err != nil {
			t.Fatal(err)
		}
		outcomes[key{par}] = o
	}
	a, b := outcomes[key{1}], outcomes[key{4}]
	if a.Completion != b.Completion {
		t.Fatalf("completion diverged across parallelism: %v vs %v", a.Completion, b.Completion)
	}
	if len(a.GuardEvents) != len(b.GuardEvents) {
		t.Fatalf("guard events diverged: %d vs %d\n%v\n%v",
			len(a.GuardEvents), len(b.GuardEvents), a.GuardEvents, b.GuardEvents)
	}
	for i := range a.GuardEvents {
		if a.GuardEvents[i] != b.GuardEvents[i] {
			t.Errorf("guard event %d diverged: %+v vs %+v", i, a.GuardEvents[i], b.GuardEvents[i])
		}
	}
	if len(a.Trace.Timeline) != len(b.Trace.Timeline) {
		t.Fatalf("timelines diverged: %d vs %d points", len(a.Trace.Timeline), len(b.Trace.Timeline))
	}
	for i := range a.Trace.Timeline {
		if a.Trace.Timeline[i] != b.Trace.Timeline[i] {
			t.Errorf("timeline point %d diverged: %+v vs %+v", i, a.Trace.Timeline[i], b.Trace.Timeline[i])
		}
	}
}

func TestRobustnessSmall(t *testing.T) {
	res, err := RobustnessFlight(sharedEnv, RobustnessConfig{Job: "B", SeedsPerCell: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(DefaultRobustnessScenarios(res.Deadline)) * len(RobustnessVariants)
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
	}
	byCell := map[[2]string]RobustnessRow{}
	for _, r := range res.Rows {
		if r.Runs != 1 {
			t.Errorf("%s/%s: runs = %d", r.Scenario, r.Policy, r.Runs)
		}
		byCell[[2]string{r.Scenario, r.Policy}] = r
	}
	// Only guarded rows may carry guard transitions.
	for cell, r := range byCell {
		if cell[1] != "jockey-guarded" && r.Reprofiles+r.Panics != 0 {
			t.Errorf("%v: unguarded row has guard events", cell)
		}
	}
	// Under drift the guard must at least react.
	drifted := byCell[[2]string{"drift-2x", "jockey-guarded"}]
	if drifted.Reprofiles+drifted.Panics == 0 {
		t.Error("guarded drift cell recorded no guard activity")
	}
	out := res.Render()
	for _, want := range []string{"Robustness", "drift-2x", "jockey-guarded", "combined", "churn"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAllocChurn(t *testing.T) {
	var pts []trace.AllocPoint
	for _, g := range []int{10, 20, 15, 15, 30} {
		pts = append(pts, trace.AllocPoint{Granted: g})
	}
	if got := AllocChurn(pts); got != 10+5+0+15 {
		t.Errorf("churn = %d", got)
	}
	if got := AllocChurn(nil); got != 0 {
		t.Errorf("churn(nil) = %d", got)
	}
}
