package control

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
)

// refExpectedUtility and refRemaining are the retired per-predictor
// ExpectedUtility and Remaining methods, kept as the reference that the
// controller's expectedUtility and model.Remaining must equal bit for bit.
// The CPA and OnlineSim bodies read the sample their unexported accessors
// returned, which Samples now returns; Amdahl's read its point estimate.
func refExpectedUtility(p model.Predictor, st model.State, a int, slack float64, u *utility.PiecewiseLinear) float64 {
	if m, ok := p.(*model.Amdahl); ok {
		rem := m.Estimate(st.FracDone, a)
		return u.Utility(st.Elapsed + time.Duration(float64(rem)*slack))
	}
	samples := p.Samples(st, a)
	if len(samples) == 0 {
		return u.Utility(st.Elapsed)
	}
	var sum float64
	for _, rem := range samples {
		sum += u.Utility(st.Elapsed + time.Duration(float64(rem)*slack))
	}
	return sum / float64(len(samples))
}

func refRemaining(p model.Predictor, st model.State, a int, q float64) time.Duration {
	if m, ok := p.(*model.Amdahl); ok {
		return m.Estimate(st.FracDone, a)
	}
	return stats.QuantileDurations(p.Samples(st, a), q)
}

// TestExpectedUtilityMatchesRetiredPredictors drives all three predictors
// over generated states, allocations, slacks, quantiles and utility curves,
// and checks that the controller's expectation and model.Remaining equal
// the retired per-predictor methods bit for bit. A negative completion
// fraction makes every OnlineSim forward run fail, the empty-sample case.
func TestExpectedUtilityMatchesRetiredPredictors(t *testing.T) {
	job := dag.NewBuilder("noisy").
		Stage("map", 40).
		Stage("reduce", 8).
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(10*time.Second, 40*time.Second), FailureProb: 0.02},
		{Exec: stats.LognormalFromMedian(20*time.Second, 50*time.Second)},
	})
	grid := []int{2, 5, 15, 40}
	cpa, err := new(model.Builder).BuildCPA(p, progress.NewTotalWorkWithQ(p), model.CPAConfig{
		Allocs: grid, RunsPerAlloc: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	online, err := model.NewOnlineSim(p, 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	preds := []struct {
		name string
		model.Predictor
	}{{"cpa", cpa}, {"online", online}, {"amdahl", model.NewAmdahl(p)}}

	r := rand.New(rand.NewPCG(11, 13))
	curves := []*utility.PiecewiseLinear{
		utility.Deadline(10 * time.Minute),
		utility.Deadline(30 * time.Second),
		utility.SoftDeadline(5*time.Minute, 5*time.Minute),
	}
	for range 6 {
		pts := make([]utility.Point, 1+r.IntN(5))
		for i := range pts {
			pts[i] = utility.Point{T: time.Duration(i)*time.Minute + time.Duration(r.Int64N(int64(time.Minute))), U: 4*r.Float64() - 2}
		}
		u, err := utility.NewPiecewiseLinear(pts)
		if err != nil {
			t.Fatal(err)
		}
		curves = append(curves, u)
	}
	states := []model.State{{FracDone: []float64{-1, 0}}} // empty OnlineSim sample
	for range 12 {
		states = append(states, model.State{
			Elapsed:  time.Duration(r.Int64N(int64(20 * time.Minute))),
			FracDone: []float64{r.Float64(), r.Float64() * r.Float64()},
		})
	}
	sawEmpty := false
	for _, pred := range preds {
		for _, st := range states {
			for _, a := range []int{0, 1, 2, 7, 15, 40, 100} {
				if len(pred.Samples(st, a)) == 0 {
					sawEmpty = true
				}
				for _, u := range curves {
					slack := 1 + r.Float64()
					got := expectedUtility(pred.Samples(st, a), st.Elapsed, slack, u)
					want := refExpectedUtility(pred, st, a, slack, u)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: E[U] at %+v, a=%d, slack=%v, %v = %v, retired = %v", pred.name, st, a, slack, u, got, want)
					}
				}
				for _, q := range []float64{0, 0.25, 0.5, r.Float64(), 0.95, 1} {
					if got, want := model.Remaining(pred, st, a, q), refRemaining(pred, st, a, q); got != want {
						t.Fatalf("%s: Remaining at %+v, a=%d, q=%v = %v, retired = %v", pred.name, st, a, q, got, want)
					}
				}
			}
		}
	}
	if !sawEmpty {
		t.Fatal("no generated query had an empty sample")
	}
	if u := curves[0]; expectedUtility(nil, time.Minute, 1.2, u) != u.Utility(time.Minute) {
		t.Error("an empty sample must read as U(elapsed)")
	}
}

// TestExpectedUtilityEmptySample: an empty sample reads as U(elapsed)
// exactly, at the elapsed time itself. The curve drops from 1 to 0 within
// 1 ns of the deadline, so reading the empty sample 1 ns early or late
// changes the value at one of the two probes.
func TestExpectedUtilityEmptySample(t *testing.T) {
	d := 40 * time.Minute
	u := utility.SoftDeadline(d, time.Nanosecond)
	for _, elapsed := range []time.Duration{d, d + time.Nanosecond} {
		if got, want := expectedUtility(nil, elapsed, 1.2, u), u.Utility(elapsed); got != want {
			t.Errorf("expectedUtility(nil, %v) = %v, want U(elapsed) = %v", elapsed, got, want)
		}
	}
}
