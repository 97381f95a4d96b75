package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Quantile returns the q-quantile of values using linear interpolation
// between order statistics. It does not require the input to be sorted.
// It returns 0 for an empty input.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// QuantileSorted is Quantile for an already ascending-sorted slice.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// QuantileDurations returns the q-quantile of an ascending-sorted duration
// slice with linear interpolation. It returns 0 for an empty input.
func QuantileDurations(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	// pos >= 0, so truncation is Floor, and Ceil is lo+1 exactly when pos
	// has a fractional part. Every simulated task start samples through
	// here (Empirical.Sample), so it skips the math.Floor/Ceil calls.
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return time.Duration(float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac)
}

// Mean returns the arithmetic mean, or 0 for an empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// values.
func StdDev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	var ss float64
	for _, v := range values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(values)))
}

// CoV returns the coefficient of variation (stddev / mean) of the values.
// This is the statistic Table 1 of the paper reports for recurring-job
// completion times. It returns 0 if the mean is zero.
func CoV(values []float64) float64 {
	m := Mean(values)
	if m == 0 {
		return 0
	}
	return StdDev(values) / m
}

// CoVDurations is CoV over durations.
func CoVDurations(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return CoV(vs)
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, StdDev       float64
	Min, Max           float64
	P10, P50, P90, P99 float64
}

// Summarize computes a Summary of the values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Mean:   Mean(s),
		StdDev: StdDev(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		P10:    quantileSorted(s, 0.10),
		P50:    quantileSorted(s, 0.50),
		P90:    quantileSorted(s, 0.90),
		P99:    quantileSorted(s, 0.99),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f p50=%.3f p90=%.3f p99=%.3f",
		s.N, s.Mean, s.StdDev, s.P50, s.P90, s.P99)
}
