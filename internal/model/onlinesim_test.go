package model

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/utility"
)

func TestOnlineSimValidation(t *testing.T) {
	if _, err := NewOnlineSim(nil, 3, 1); err == nil {
		t.Error("nil profile must fail")
	}
	p := detProfile(t)
	if _, err := NewOnlineSim(p, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineSimFromScratchMatchesOffline(t *testing.T) {
	// The deterministic job from model_test: 20×30s map, 4×60s reduce.
	p := detProfile(t)
	o, err := NewOnlineSim(p, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := State{FracDone: []float64{0, 0}}
	// At alloc 20: one map wave + reduce = 90s, deterministic.
	if got := o.Remaining(st, 20, 0.5); got != 90*time.Second {
		t.Errorf("Remaining(0, 20) = %v, want 90s", got)
	}
	// At alloc 4: 5 waves + reduce = 210s.
	if got := o.Remaining(st, 4, 1.0); got != 210*time.Second {
		t.Errorf("Remaining(0, 4) = %v, want 210s", got)
	}
}

func TestOnlineSimUsesPartialState(t *testing.T) {
	p := detProfile(t)
	o, err := NewOnlineSim(p, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Map fully done: only the reduce wave remains (60s at alloc >= 4).
	st := State{Elapsed: 5 * time.Minute, FracDone: []float64{1, 0}}
	if got := o.Remaining(st, 10, 1.0); got != 60*time.Second {
		t.Errorf("Remaining(map done) = %v, want 60s", got)
	}
	// Half the map done at alloc 10: one more map wave (30s) + reduce (60s).
	stHalf := State{FracDone: []float64{0.5, 0}}
	if got := o.Remaining(stHalf, 10, 1.0); got != 90*time.Second {
		t.Errorf("Remaining(half map) = %v, want 90s", got)
	}
	// Everything done: zero remaining.
	if got := o.Remaining(State{FracDone: []float64{1, 1}}, 10, 1.0); got != 0 {
		t.Errorf("Remaining(done) = %v, want 0", got)
	}
}

func TestOnlineSimExpectedUtility(t *testing.T) {
	p := detProfile(t)
	o, _ := NewOnlineSim(p, 3, 1)
	st := State{FracDone: []float64{0, 0}}
	easy := utility.Deadline(time.Hour)
	if got := o.ExpectedUtility(st, 20, 1.2, easy); got != 1 {
		t.Errorf("easy utility = %v", got)
	}
	// At a single token the 840s of serial work lands far past the
	// 1-second deadline's 10-minute grace slope, so utility goes negative.
	hard := utility.Deadline(time.Second)
	if got := o.ExpectedUtility(st, 1, 1.2, hard); got >= 0 {
		t.Errorf("impossible utility = %v", got)
	}
}

func TestOnlineSimMemo(t *testing.T) {
	p := noisyProfile(t)
	o, _ := NewOnlineSim(p, 4, 2)
	st := State{Elapsed: time.Minute, FracDone: []float64{0.25, 0}}
	a1 := o.Remaining(st, 10, 0.5)
	a2 := o.Remaining(st, 10, 0.5)
	if a1 != a2 {
		t.Error("memoized query differed")
	}
	// Different state must refresh the memo.
	st2 := State{Elapsed: 2 * time.Minute, FracDone: []float64{0.5, 0}}
	b := o.Remaining(st2, 10, 0.5)
	if b >= a1 {
		t.Errorf("more progress should predict less remaining: %v -> %v", a1, b)
	}
}

func TestOnlineSimAsPredictorInController(t *testing.T) {
	// OnlineSim satisfies Predictor and can drive the expected-utility
	// argmin like the CPA does.
	p := detProfile(t)
	var pred Predictor
	o, _ := NewOnlineSim(p, 3, 1)
	pred = o
	st := State{FracDone: []float64{0, 0}}
	u := utility.Deadline(3 * time.Minute)
	// 840s of work in 180s needs >= 6 tokens; utility at 4 should be worse
	// than at 20.
	u4 := pred.ExpectedUtility(st, 4, 1.0, u)
	u20 := pred.ExpectedUtility(st, 20, 1.0, u)
	if u20 <= u4 {
		t.Errorf("utility(20)=%v should exceed utility(4)=%v", u20, u4)
	}
}
