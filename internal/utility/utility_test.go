package utility

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDeadlineCurve(t *testing.T) {
	d := 60 * time.Minute
	u := Deadline(d)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 1},
		{30 * time.Minute, 1},
		{60 * time.Minute, 1},
		{65 * time.Minute, 0},  // halfway down the first drop
		{70 * time.Minute, -1}, // d+10min
		{1060 * time.Minute, -1000},
		{5000 * time.Minute, -1000}, // flat after last point
	}
	for _, c := range cases {
		if got := u.Utility(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("U(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSoftDeadline(t *testing.T) {
	u := SoftDeadline(time.Hour, 30*time.Minute)
	if got := u.Utility(time.Hour); got != 1 {
		t.Errorf("U(d) = %v", got)
	}
	if got := u.Utility(75 * time.Minute); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("U(d+15m) = %v, want 0.5", got)
	}
	if got := u.Utility(10 * time.Hour); got != 0 {
		t.Errorf("late soft utility = %v, want 0 (never negative)", got)
	}
	// Zero grace must not panic.
	z := SoftDeadline(time.Hour, 0)
	if got := z.Utility(2 * time.Hour); got != 0 {
		t.Errorf("zero-grace late utility = %v", got)
	}
}

func TestNewPiecewiseLinearErrors(t *testing.T) {
	if _, err := NewPiecewiseLinear(nil); err == nil {
		t.Error("no points must fail")
	}
	if _, err := NewPiecewiseLinear([]Point{{T: 1, U: 0}, {T: 1, U: 5}}); err == nil {
		t.Error("duplicate times must fail")
	}
}

func TestPointsSortedAndCopied(t *testing.T) {
	pl, err := NewPiecewiseLinear([]Point{{T: 2 * time.Minute, U: 0}, {T: time.Minute, U: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ps := pl.Points()
	if ps[0].T != time.Minute {
		t.Error("points not sorted")
	}
	ps[0].U = 42
	if pl.Points()[0].U == 42 {
		t.Error("Points returned internal slice")
	}
}

func TestShiftEarlier(t *testing.T) {
	d := 60 * time.Minute
	u := Deadline(d).ShiftEarlier(3 * time.Minute)
	// The shifted curve's deadline is effectively 57 minutes.
	if got := u.Utility(57 * time.Minute); got != 1 {
		t.Errorf("U(57m) = %v", got)
	}
	if got := u.Utility(67 * time.Minute); math.Abs(got+1) > 1e-9 {
		t.Errorf("U(67m) = %v, want -1", got)
	}
	// Shifting past the first positive vertex starts the copy at the
	// original's value there: U(2m) = 0.8, a fifth of the way down the
	// 10-minute fall from 1 to −1.
	v := Deadline(time.Minute).ShiftEarlier(2 * time.Minute)
	if got := v.Utility(0); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("shifted curve U(0) = %v, want 0.8", got)
	}
}

func TestUtilityMonotoneNonIncreasingProperty(t *testing.T) {
	u := Deadline(45 * time.Minute)
	f := func(aMin, bMin uint16) bool {
		a := time.Duration(aMin) * time.Second
		b := time.Duration(bMin) * time.Second
		if a > b {
			a, b = b, a
		}
		return u.Utility(a) >= u.Utility(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	s := Deadline(time.Hour).String()
	if !strings.Contains(s, "utility[") || !strings.Contains(s, "1h0m0s") {
		t.Errorf("String = %q", s)
	}
}
