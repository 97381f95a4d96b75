package flight

import (
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/control"
)

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelNone, LevelDecisions, LevelCounterfactual} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", l.String(), got, err, l)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Errorf("ParseLevel(bogus) did not fail")
	}
	if got, err := ParseLevel(""); err != nil || got != LevelNone {
		t.Errorf("ParseLevel(\"\") = %v, %v; want LevelNone", got, err)
	}
}

func TestRecorderTopKAndRegret(t *testing.T) {
	rec := NewRecorder(Config{Job: "B", Policy: "jockey", Deadline: 20 * time.Minute})
	d := &control.DecisionRecord{
		At:       time.Minute,
		Decision: control.Decision{Raw: 50, Granted: 10, Mechanism: control.MechHysteresis},
		Candidates: []control.CandidateEval{
			{Alloc: 10, Utility: 0.2, Predicted: 30 * time.Minute},
			{Alloc: 50, Utility: 0.9, Predicted: 15 * time.Minute},
			{Alloc: 100, Utility: 0.9, Predicted: 12 * time.Minute},
			{Alloc: 5, Utility: 0.1, Predicted: 50 * time.Minute},
		},
	}
	rec.RecordDecision(d)
	// The borrowed slice must be copied, not aliased.
	d.Candidates[0].Utility = -1

	r := rec.Record()
	if len(r.Ticks) != 1 {
		t.Fatalf("got %d ticks, want 1", len(r.Ticks))
	}
	tick := r.Ticks[0]
	if TopK != 3 || len(tick.Candidates) != TopK {
		t.Fatalf("got %d candidates, want the top %d of 4", len(tick.Candidates), TopK)
	}
	// Best first; the utility tie at 0.9 breaks toward the smaller alloc.
	if c := tick.Candidates; c[0].Alloc != 50 || c[1].Alloc != 100 || c[2].Alloc != 10 {
		t.Errorf("top 3 = %d, %d, %d; want 50, 100, 10", c[0].Alloc, c[1].Alloc, c[2].Alloc)
	}
	if tick.Candidates[0].Utility != 0.9 {
		t.Errorf("retained candidate aliases the borrowed scratch (utility %v)", tick.Candidates[0].Utility)
	}
	// Granted 10 has utility 0.2, best is 0.9.
	if got, want := tick.Regret, 0.7; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("decision regret = %v, want %v", got, want)
	}
	if tick.Mechanism != control.MechHysteresis {
		t.Errorf("mechanism = %q", tick.Mechanism)
	}
}

func TestDecisionRegretGrantBetweenCandidates(t *testing.T) {
	// A guard override can grant an allocation that is not on the grid; the
	// regret lookup uses the smallest candidate at or above the grant.
	d := &control.DecisionRecord{
		Decision: control.Decision{Granted: 30},
		Candidates: []control.CandidateEval{
			{Alloc: 10, Utility: 0.1},
			{Alloc: 50, Utility: 0.6},
			{Alloc: 100, Utility: 1.0},
		},
	}
	if got, want := decisionRegret(d), 0.4; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("regret = %v, want %v", got, want)
	}
	// A grant above every candidate falls back to the last (largest).
	d.Granted = 200
	if got := decisionRegret(d); got != 0 {
		t.Errorf("regret at top grant = %v, want 0", got)
	}
}

func TestSpanCandidates(t *testing.T) {
	grid := []int{1, 2, 4, 9, 16, 23, 37, 54, 75, 100}
	got := SpanCandidates(grid, 4)
	if len(got) != 4 || got[0] != 1 || got[len(got)-1] != 100 {
		t.Fatalf("SpanCandidates = %v; want 4 values from 1 to 100", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("SpanCandidates not ascending: %v", got)
		}
	}
	if all := SpanCandidates(grid, 100); len(all) != len(grid) {
		t.Errorf("oversized n should return the full grid, got %v", all)
	}
	if got := SpanCandidates(nil, 3); got != nil {
		t.Errorf("empty grid should give nil, got %v", got)
	}
}

func TestWriteJSONRejectsInvalid(t *testing.T) {
	r := &Record{Schema: SchemaVersion, Job: "", Level: "decisions"}
	var b strings.Builder
	if err := r.WriteJSON(&b); err == nil {
		t.Errorf("WriteJSON accepted a record with no job name")
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	rec := NewRecorder(Config{Job: "B", Policy: "jockey-guarded", Level: LevelCounterfactual, Deadline: 35 * time.Minute})
	rec.RecordDecision(&control.DecisionRecord{
		At:       time.Minute,
		Decision: control.Decision{Raw: 54, Granted: 54, Mechanism: control.MechFirstTick, Mode: "primary"},
		Candidates: []control.CandidateEval{
			{Alloc: 1, Utility: 0, Predicted: time.Hour},
			{Alloc: 54, Utility: 1, Predicted: 20 * time.Minute},
		},
	})
	r := rec.Record()
	r.Counterfactual = &Regret{
		Candidates:     []int{1, 54},
		Replays:        []ReplayOutcome{{Alloc: 1, Completion: time.Hour}, {Alloc: 54, Completion: 20 * time.Minute, Met: true, AllocTokenSeconds: 64800}},
		Actual:         ReplayOutcome{Completion: 21 * time.Minute, Met: true, AllocTokenSeconds: 70000},
		HindsightAlloc: 54,
		TokenRegret:    5200,
		Attribution:    []MechanismShare{{Mechanism: AttributionModelError, Ticks: 3, GapTokenSeconds: 5200}},
		Attributed:     AttributionModelError,
	}

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	var b2 strings.Builder
	if err := got.WriteJSON(&b2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if b.String() != b2.String() {
		t.Errorf("round trip not byte-identical:\n%s\nvs\n%s", b.String(), b2.String())
	}
	if got.Counterfactual == nil || got.Counterfactual.Attributed != AttributionModelError {
		t.Errorf("counterfactual section lost in round trip: %+v", got.Counterfactual)
	}
}
