package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestQuantileBasics(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {-0.5, 1}, {2, 4}, {math.NaN(), 1},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	Quantile(vals, 0.5)
	if vals[0] != 4 || vals[1] != 1 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestQuantileDurations(t *testing.T) {
	ds := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
	if got := QuantileDurations(ds, 0.5); got != 2*time.Second {
		t.Errorf("median = %v", got)
	}
	if got := QuantileDurations(ds, 0.75); got != 3*time.Second {
		t.Errorf("p75 = %v, want 3s", got)
	}
	if got := QuantileDurations(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := QuantileDurations(ds, math.NaN()); got != time.Second {
		t.Errorf("NaN quantile = %v, want the minimum 1s", got)
	}
}

func TestMeanStdDevCoV(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vals); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if got := StdDev(vals); math.Abs(got-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", got)
	}
	if got := CoV(vals); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("CoV = %v, want 0.4", got)
	}
	if CoV(nil) != 0 || StdDev([]float64{1}) != 0 || Mean(nil) != 0 {
		t.Error("degenerate inputs must yield 0")
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("zero-mean CoV must be 0")
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := Summarize(vals)
	if s.N != 101 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.P50 != 50 || s.P10 != 10 || s.P90 != 90 {
		t.Errorf("percentiles: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary: %+v", z)
	}
}

func TestCoVDurations(t *testing.T) {
	got := CoVDurations([]time.Duration{2 * time.Second, 4 * time.Second, 4 * time.Second,
		4 * time.Second, 5 * time.Second, 5 * time.Second, 7 * time.Second, 9 * time.Second})
	if math.Abs(got-0.4) > 1e-9 {
		t.Errorf("CoV = %v, want 0.4", got)
	}
}

func TestQuantileSortedAgreesWithQuantileProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		q = math.Abs(math.Mod(q, 1))
		want := Quantile(vals, q)
		s := make([]float64, len(vals))
		copy(s, vals)
		sort.Float64s(s)
		return QuantileSorted(s, q) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZScore(t *testing.T) {
	cases := []struct{ q, want float64 }{
		{0.5, 0},
		{0.9, 1.2815515655446004},
		{0.1, -1.2815515655446004},
	}
	for _, c := range cases {
		if got := zScore(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("zScore(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsInf(zScore(0), -1) || !math.IsInf(zScore(1), 1) {
		t.Error("zScore extremes must be infinite")
	}
}

func TestSecondsToDurationClamps(t *testing.T) {
	if secondsToDuration(-5) != 0 {
		t.Error("negative seconds must clamp to 0")
	}
	if secondsToDuration(1e30) != math.MaxInt64 {
		t.Error("huge seconds must clamp to MaxInt64")
	}
	if got := secondsToDuration(1.5); got != 1500*time.Millisecond {
		t.Errorf("1.5s -> %v", got)
	}
}
