package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
)

// Distribution models a probability distribution over durations. Task service
// times, queueing delays and initialization latencies are all Distributions.
type Distribution interface {
	// Sample draws one value using the supplied generator.
	Sample(r *rand.Rand) time.Duration
	// Mean returns the distribution mean.
	Mean() time.Duration
	// Quantile returns the q-quantile for q in [0, 1].
	Quantile(q float64) time.Duration
	fmt.Stringer
}

// zScore returns the standard-normal quantile for probability q.
func zScore(q float64) float64 {
	if q <= 0 {
		return math.Inf(-1)
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return math.Sqrt2 * math.Erfinv(2*q-1)
}

func secondsToDuration(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	if s > math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(s * float64(time.Second))
}

// Point is a degenerate distribution that always returns V.
type Point struct{ V time.Duration }

// Sample implements Distribution.
func (p Point) Sample(*rand.Rand) time.Duration { return p.V }

// Mean implements Distribution.
func (p Point) Mean() time.Duration { return p.V }

// Quantile implements Distribution.
func (p Point) Quantile(float64) time.Duration { return p.V }

func (p Point) String() string { return fmt.Sprintf("point(%v)", p.V) }

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct{ Lo, Hi time.Duration }

// Sample implements Distribution.
func (u Uniform) Sample(r *rand.Rand) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(r.Int64N(int64(u.Hi-u.Lo)))
}

// Mean implements Distribution.
func (u Uniform) Mean() time.Duration { return (u.Lo + u.Hi) / 2 }

// Quantile implements Distribution.
func (u Uniform) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return u.Lo + time.Duration(q*float64(u.Hi-u.Lo))
}

func (u Uniform) String() string { return fmt.Sprintf("uniform(%v,%v)", u.Lo, u.Hi) }

// Exponential is the exponential distribution with the given mean.
type Exponential struct{ MeanValue time.Duration }

// Sample implements Distribution.
func (e Exponential) Sample(r *rand.Rand) time.Duration {
	return secondsToDuration(r.ExpFloat64() * e.MeanValue.Seconds())
}

// Mean implements Distribution.
func (e Exponential) Mean() time.Duration { return e.MeanValue }

// Quantile implements Distribution.
func (e Exponential) Quantile(q float64) time.Duration {
	if q >= 1 {
		q = 1 - 1e-12
	}
	if q < 0 {
		q = 0
	}
	return secondsToDuration(-math.Log(1-q) * e.MeanValue.Seconds())
}

func (e Exponential) String() string { return fmt.Sprintf("exp(mean=%v)", e.MeanValue) }

// Lognormal is the lognormal distribution: exp(N(Mu, Sigma²)) seconds.
// It is the workhorse for task service times because measured data-parallel
// task runtimes are heavy-tailed (the paper's "outliers").
type Lognormal struct {
	Mu    float64 // mean of the underlying normal, in log-seconds
	Sigma float64 // stddev of the underlying normal
}

// LognormalFromMedian builds a Lognormal whose median and 90th percentile
// match the given durations (the two statistics Table 2 of the paper
// publishes per stage). If p90 <= median the distribution degenerates to a
// narrow spread around the median.
func LognormalFromMedian(median, p90 time.Duration) Lognormal {
	const z90 = 1.2815515655446004
	mu := math.Log(math.Max(median.Seconds(), 1e-9))
	sigma := (math.Log(math.Max(p90.Seconds(), 1e-9)) - mu) / z90
	if sigma < 0.01 {
		sigma = 0.01
	}
	return Lognormal{Mu: mu, Sigma: sigma}
}

// Sample implements Distribution.
func (l Lognormal) Sample(r *rand.Rand) time.Duration {
	return secondsToDuration(math.Exp(l.Mu + l.Sigma*r.NormFloat64()))
}

// Mean implements Distribution.
func (l Lognormal) Mean() time.Duration {
	return secondsToDuration(math.Exp(l.Mu + l.Sigma*l.Sigma/2))
}

// Quantile implements Distribution.
func (l Lognormal) Quantile(q float64) time.Duration {
	return secondsToDuration(math.Exp(l.Mu + l.Sigma*zScore(q)))
}

func (l Lognormal) String() string {
	return fmt.Sprintf("lognormal(mu=%.3f,sigma=%.3f)", l.Mu, l.Sigma)
}

// Shifted adds a constant offset to every sample of the base distribution.
type Shifted struct {
	Base   Distribution
	Offset time.Duration
}

// Sample implements Distribution.
func (s Shifted) Sample(r *rand.Rand) time.Duration { return s.Offset + s.Base.Sample(r) }

// Mean implements Distribution.
func (s Shifted) Mean() time.Duration { return s.Offset + s.Base.Mean() }

// Quantile implements Distribution.
func (s Shifted) Quantile(q float64) time.Duration { return s.Offset + s.Base.Quantile(q) }

func (s Shifted) String() string { return fmt.Sprintf("%v+%v", s.Offset, s.Base) }

// Scaled multiplies every sample of the base distribution by Factor.
// Profiles use it to model input-size inflation (Table 3's "almost twice as
// much work").
type Scaled struct {
	Base   Distribution
	Factor float64
}

// Sample implements Distribution.
func (s Scaled) Sample(r *rand.Rand) time.Duration {
	return time.Duration(float64(s.Base.Sample(r)) * s.Factor)
}

// Mean implements Distribution.
func (s Scaled) Mean() time.Duration {
	return time.Duration(float64(s.Base.Mean()) * s.Factor)
}

// Quantile implements Distribution.
func (s Scaled) Quantile(q float64) time.Duration {
	return time.Duration(float64(s.Base.Quantile(q)) * s.Factor)
}

func (s Scaled) String() string { return fmt.Sprintf("%.2f*%v", s.Factor, s.Base) }

// Empirical is the empirical distribution of a set of observed samples,
// as extracted from a recorded training run. Sampling draws uniformly with
// linear interpolation between order statistics.
type Empirical struct {
	sorted []time.Duration
	mean   time.Duration
}

// NewEmpirical builds an empirical distribution from observed samples.
// It copies and sorts the input. It panics if samples is empty, because an
// empirical distribution of nothing is a programming error in the caller.
func NewEmpirical(samples []time.Duration) *Empirical {
	invariant.Assertf(len(samples) > 0, "stats: NewEmpirical with no samples")
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	return EmpiricalOf(s)
}

// EmpiricalOf is NewEmpirical without the copy: it sorts samples in place
// and keeps them, so the caller hands the slice over and must not touch it
// afterwards. It is for samples the caller has just gathered.
func EmpiricalOf(samples []time.Duration) *Empirical {
	invariant.Assertf(len(samples) > 0, "stats: EmpiricalOf with no samples")
	slices.Sort(samples)
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	return &Empirical{sorted: samples, mean: time.Duration(sum / float64(len(samples)))}
}

// Len returns the number of underlying samples.
func (e *Empirical) Len() int { return len(e.sorted) }

// Sample implements Distribution.
func (e *Empirical) Sample(r *rand.Rand) time.Duration {
	return e.Quantile(r.Float64())
}

// Mean implements Distribution.
func (e *Empirical) Mean() time.Duration { return e.mean }

// Quantile implements Distribution.
func (e *Empirical) Quantile(q float64) time.Duration {
	return QuantileDurations(e.sorted, q)
}

func (e *Empirical) String() string {
	return fmt.Sprintf("empirical(n=%d,median=%v)", len(e.sorted), e.Quantile(0.5))
}

// Samples returns the sorted underlying samples. The returned slice is owned
// by the Empirical and must not be modified.
func (e *Empirical) Samples() []time.Duration { return e.sorted }
