package utility

import (
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzUtilityParse checks that arbitrary specifications never panic the
// parser and that every accepted curve is well formed: strictly increasing
// vertex times and finite utility everywhere (ParseFloat would happily
// admit NaN/Inf, which would poison expected-utility comparisons). It also
// checks that ShiftEarlier shifts every accepted curve (checkShift), and
// that Max is the largest vertex value.
func FuzzUtilityParse(f *testing.F) {
	f.Add("deadline 60m")
	f.Add("soft 60m grace 30m")
	f.Add("0:1, 60m:1, 70m:-1, 1060m:-1000")
	f.Add("0:1,1s:0.5")
	f.Add("deadline -5m")
	f.Add("soft 1h grace")
	f.Add("0:NaN, 1m:1")
	f.Add("0:+Inf, 1m:1")
	f.Add("1m:1e308, 2m:-1e308")
	f.Add(" 10:20 ")
	f.Add("::::")
	f.Add("9999999999999h:1, 0:0")
	f.Fuzz(func(t *testing.T, s string) {
		pl, err := Parse(s)
		if err != nil {
			if !strings.Contains(err.Error(), "utility:") {
				t.Errorf("error missing package prefix: %v", err)
			}
			return
		}
		ps := pl.Points()
		if len(ps) < 2 {
			t.Fatalf("accepted curve has %d points: %q", len(ps), s)
		}
		best := ps[0].U
		for _, p := range ps {
			best = max(best, p.U)
		}
		if pl.Max() != best {
			t.Errorf("Max() = %v, largest vertex %v for %q", pl.Max(), best, s)
		}
		for i, p := range ps {
			if i > 0 && ps[i-1].T >= p.T {
				t.Errorf("points not strictly increasing at %d: %v", i, ps)
			}
			if math.IsNaN(p.U) || math.IsInf(p.U, 0) {
				t.Errorf("accepted curve has non-finite vertex %v from %q", p, s)
			}
		}
		for _, probe := range []time.Duration{
			0, ps[0].T, ps[len(ps)-1].T, ps[len(ps)-1].T + time.Hour,
			(ps[0].T + ps[len(ps)-1].T) / 2,
		} {
			if u := pl.Utility(probe); math.IsNaN(u) || math.IsInf(u, 0) {
				t.Errorf("Utility(%v) = %v (non-finite) for %q", probe, u, s)
			}
		}
		checkShift(t, pl, s)
		if pl.String() == "" {
			t.Errorf("accepted curve renders empty for %q", s)
		}
	})
}

// checkShift asserts that pl.ShiftEarlier(δ) at t equals pl at t+δ for
// every t ≥ 0 where t+δ does not overflow. It probes deltas at, and midway
// between, the first vertices, plus the default dead zone, and times at
// each shifted vertex and segment midpoint. Only the copy's first segment
// is interpolated from an interpolated value, U(δ), so the two agree to
// within 1e-9 of the curve's largest |U|.
func checkShift(t *testing.T, pl *PiecewiseLinear, spec string) {
	ps := pl.Points()
	scale := 1.0
	for _, p := range ps {
		scale = max(scale, math.Abs(p.U))
	}
	deltas := []time.Duration{0, time.Nanosecond, 3 * time.Minute, ps[len(ps)-1].T + time.Hour}
	for i := 0; i < len(ps) && i < 4; i++ {
		deltas = append(deltas, ps[i].T)
		if i+1 < len(ps) {
			deltas = append(deltas, ps[i].T+(ps[i+1].T-ps[i].T)/2)
		}
	}
	for _, delta := range deltas {
		if delta < 0 { // the +1h probe overflowed
			continue
		}
		shifted := pl.ShiftEarlier(delta)
		probes := []time.Duration{0, time.Nanosecond, time.Minute}
		for i, p := range ps {
			probes = append(probes, p.T-delta)
			if i > 0 {
				probes = append(probes, ps[i-1].T+(p.T-ps[i-1].T)/2-delta)
			}
		}
		for _, x := range probes {
			if x < 0 || x > math.MaxInt64-delta {
				continue
			}
			if got, want := shifted.Utility(x), pl.Utility(x+delta); math.Abs(got-want) > 1e-9*scale {
				t.Errorf("ShiftEarlier(%v).Utility(%v) = %v, want U(%v) = %v for %q", delta, x, got, x+delta, want, spec)
			}
		}
	}
}
