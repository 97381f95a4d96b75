package control

import (
	"reflect"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/utility"
)

// flatPredictor is an allocation-free, pure stand-in predictor: remaining
// time is work/alloc, utility is the curve at the padded completion. Its
// purity makes Decide's own allocation behavior measurable in isolation.
type flatPredictor struct {
	work time.Duration
}

func (f flatPredictor) Remaining(st model.State, a int, q float64) time.Duration {
	if a < 1 {
		a = 1
	}
	return f.work / time.Duration(a)
}

func (f flatPredictor) ExpectedUtility(st model.State, a int, slack float64, u utility.Fn) float64 {
	return u.Utility(st.Elapsed + time.Duration(float64(f.Remaining(st, a, 1))*slack))
}

// captureRecorder retains deep copies of every record.
type captureRecorder struct {
	recs []DecisionRecord
}

func (c *captureRecorder) RecordDecision(r *DecisionRecord) {
	cp := *r
	cp.Candidates = append([]CandidateEval(nil), r.Candidates...)
	c.recs = append(c.recs, cp)
}

func newRecordController(t *testing.T, deadline time.Duration) *Controller {
	t.Helper()
	ctrl, err := NewController(Config{
		Predictor:  flatPredictor{work: 500 * time.Minute},
		Utility:    utility.Deadline(deadline),
		Candidates: candidates(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestDecideNilRecorderAddsZeroAllocations(t *testing.T) {
	ctrl := newRecordController(t, 30*time.Minute)
	st := model.State{Elapsed: 0, FracDone: []float64{0, 0}}
	ctrl.Decide(st) // first tick initializes smoothing state
	st.Elapsed = time.Minute
	st.FracDone[0] = 0.1
	if allocs := testing.AllocsPerRun(200, func() {
		ctrl.Decide(st)
	}); allocs != 0 {
		t.Errorf("Decide with recording off allocates %v per call, want 0", allocs)
	}
}

func TestDecideMechanismAttribution(t *testing.T) {
	deadline := 30 * time.Minute
	ctrl := newRecordController(t, deadline)
	rec := &captureRecorder{}
	ctrl.SetRecorder(rec)

	st := model.State{Elapsed: 0, FracDone: []float64{0, 0}}
	d := ctrl.Decide(st)
	if len(rec.recs) != 1 {
		t.Fatalf("got %d records after one tick", len(rec.recs))
	}
	r0 := rec.recs[0]
	if r0.Mechanism != MechFirstTick {
		t.Errorf("first tick mechanism = %q, want %q", r0.Mechanism, MechFirstTick)
	}
	if r0.Raw != d.Raw || r0.Granted != d.Granted || r0.At != 0 {
		t.Errorf("record %+v does not mirror decision %+v", r0, d)
	}
	if len(r0.Candidates) != len(ctrl.Candidates()) {
		t.Errorf("got %d candidate evals, want the full grid (%d)", len(r0.Candidates), len(ctrl.Candidates()))
	}
	// Candidate evaluations carry exactly what the argmax compared: the
	// recorded raw allocation must re-derive from them.
	best, bestU := -1, 0.0
	for _, c := range r0.Candidates {
		if best == -1 || c.Utility > bestU+1e-9 {
			best, bestU = c.Alloc, c.Utility
		}
	}
	if best != r0.Raw {
		t.Errorf("argmax over recorded candidates = %d, recorded raw = %d", best, r0.Raw)
	}

	// Far behind schedule: raw jumps but hysteresis damps the change.
	st = model.State{Elapsed: 10 * time.Minute, FracDone: []float64{0.05, 0}}
	d = ctrl.Decide(st)
	r1 := rec.recs[len(rec.recs)-1]
	if d.Granted != d.Raw {
		if r1.Mechanism != MechHysteresis {
			t.Errorf("damped tick mechanism = %q, want %q (decision %+v)", r1.Mechanism, MechHysteresis, d)
		}
	} else if r1.Mechanism != MechModel {
		t.Errorf("undamped tick mechanism = %q, want %q", r1.Mechanism, MechModel)
	}
}

func TestDecideDeadZoneMechanism(t *testing.T) {
	// flatPredictor's forecast depends only on elapsed time, so the dead-zone
	// band is exactly computable: with work 500m, slack 1.2, deadline 30m and
	// dead zone 3m, the first tick grants 23 (0 + 600m/a ≤ 27m). Two minutes
	// in, the shifted curve wants 24, but the unshifted deadline is still met
	// at 23 (2m + 600m/23 = 28.1m ≤ 30m): the dead zone holds the grant.
	ctrl := newRecordController(t, 30*time.Minute)
	rec := &captureRecorder{}
	ctrl.SetRecorder(rec)

	st := model.State{Elapsed: 0, FracDone: []float64{0, 0}}
	ctrl.Decide(st)
	granted := ctrl.Granted()

	st.Elapsed = 2 * time.Minute
	d := ctrl.Decide(st)
	r := rec.recs[len(rec.recs)-1]
	if r.Mechanism != MechDeadZone {
		t.Fatalf("in-band tick mechanism = %q, want %q (decision %+v)", r.Mechanism, MechDeadZone, d)
	}
	if d.Raw <= granted {
		t.Errorf("dead zone recorded but raw %d did not rise above the grant %d", d.Raw, granted)
	}
	if d.Granted != granted {
		t.Errorf("dead zone did not hold the grant: %d -> %d", granted, d.Granted)
	}
}

func TestRecordingDoesNotPerturbController(t *testing.T) {
	mk := func(withRec bool) []Decision {
		ctrl := newRecordController(t, 30*time.Minute)
		if withRec {
			ctrl.SetRecorder(&captureRecorder{})
		}
		var out []Decision
		st := model.State{FracDone: []float64{0, 0}}
		frac := 0.0
		for i := 0; i < 25; i++ {
			st.Elapsed = time.Duration(i) * time.Minute
			st.FracDone[0] = frac
			out = append(out, ctrl.Decide(st))
			frac += 0.03
			if frac > 1 {
				frac = 1
			}
		}
		return out
	}
	if got, want := mk(true), mk(false); !reflect.DeepEqual(got, want) {
		t.Errorf("recording changed the decision trajectory:\n%v\nvs\n%v", got, want)
	}
}

func TestGuardEventsReturnsACopy(t *testing.T) {
	prior, _ := testSetup(t)
	ctrl := newRecordController(t, 30*time.Minute)
	g, err := NewGuard(GuardConfig{Controller: ctrl, Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	g.logEvent(model.State{Elapsed: time.Minute}, GuardEventReprofile, GuardPrimary, GuardPrimary, 0.4)
	g.logEvent(model.State{Elapsed: 2 * time.Minute}, GuardEventPanic, GuardPrimary, GuardPanic, 0.9)

	evs := g.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	evs[0].Kind = "mangled"
	evs = evs[:0]
	evs = append(evs, GuardEvent{Kind: "junk"}, GuardEvent{Kind: "junk"}, GuardEvent{Kind: "junk"})
	_ = evs

	fresh := g.Events()
	if len(fresh) != 2 || fresh[0].Kind != GuardEventReprofile || fresh[1].Kind != GuardEventPanic {
		t.Errorf("mutating the returned slice reached the internal log: %+v", fresh)
	}
}

// TestGuardRecorderSeesFinalGrant drives a guarded controller so far behind
// schedule that the guard first boosts the grant past hysteresis and then
// panics, and checks that every tick's record carries exactly the decision
// the guard returned — mechanism, mode and deviation included.
func TestGuardRecorderSeesFinalGrant(t *testing.T) {
	prior, _ := testSetup(t)
	ctrl := newRecordController(t, 30*time.Minute)
	g, err := NewGuard(GuardConfig{Controller: ctrl, Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	rec := &captureRecorder{}
	g.SetRecorder(rec)

	const ticks = 30
	seen := map[string]int{}
	st := model.State{FracDone: []float64{0, 0}}
	frac := 0.0
	for i := 0; i < ticks; i++ {
		st.Elapsed = time.Duration(i) * time.Minute
		st.FracDone[0] = frac
		d := g.Decide(st)
		if len(rec.recs) != i+1 {
			t.Fatalf("tick %d: got %d records, want one per tick", i, len(rec.recs))
		}
		last := rec.recs[i]
		if last.Decision != d || last.At != st.Elapsed {
			t.Fatalf("tick %d: record %+v at %v disagrees with decision %+v", i, last.Decision, last.At, d)
		}
		if len(last.Candidates) != len(ctrl.Candidates()) {
			t.Fatalf("tick %d (%s): got %d candidate evals, want %d", i, d.Mechanism, len(last.Candidates), len(ctrl.Candidates()))
		}
		seen[d.Mechanism]++
		frac += 0.005 // fall badly behind: exercises the alarm paths
	}
	for _, mech := range []string{MechUrgencyBoost, MechGuardPanic} {
		if seen[mech] == 0 {
			t.Errorf("no %s tick in %d ticks (mechanisms seen: %v)", mech, ticks, seen)
		}
	}
}
