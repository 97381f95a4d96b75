// Package utility models the economic utility of job completion times.
// Jockey's users express deadlines and their importance as a utility
// function U(t) of the completion time (§2.2, §4.3); the control loop picks
// the cheapest allocation that maximizes expected utility.
package utility

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
)

// Point is one vertex of a piecewise-linear utility curve.
type Point struct {
	T time.Duration
	U float64
}

// PiecewiseLinear is a utility curve defined by line segments between
// points, constant before the first and after the last point.
type PiecewiseLinear struct {
	points []Point
}

// NewPiecewiseLinear builds a curve through the given points. Points are
// sorted by time; duplicate times are an error.
func NewPiecewiseLinear(points []Point) (*PiecewiseLinear, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("utility: no points")
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].T < ps[j].T })
	for i := 1; i < len(ps); i++ {
		if ps[i].T == ps[i-1].T {
			return nil, fmt.Errorf("utility: duplicate point at t=%v", ps[i].T)
		}
	}
	return &PiecewiseLinear{points: ps}, nil
}

// Deadline builds the paper's standard experiment curve for deadline d:
// utility is flat at 1 until the deadline, falls to −1 ten minutes later,
// and keeps falling to −1000 at d+1000 minutes (§5.1).
func Deadline(d time.Duration) *PiecewiseLinear {
	pl, err := NewPiecewiseLinear([]Point{
		{T: 0, U: 1},
		{T: d, U: 1},
		{T: d + 10*time.Minute, U: -1},
		{T: d + 1000*time.Minute, U: -1000},
	})
	invariant.NoErr(err, "utility: Deadline(%v) built an invalid curve", d) // unreachable: points are distinct for any d >= 0
	return pl
}

// SoftDeadline builds a gentler curve for "soft" SLOs (§2.2): utility 1
// until the deadline, decaying linearly to 0 at d+grace, and flat at 0
// after — late completion is undesirable but never penalized.
func SoftDeadline(d, grace time.Duration) *PiecewiseLinear {
	if grace <= 0 {
		grace = time.Nanosecond
	}
	pl, err := NewPiecewiseLinear([]Point{
		{T: 0, U: 1},
		{T: d, U: 1},
		{T: d + grace, U: 0},
	})
	invariant.NoErr(err, "utility: SoftDeadline(%v, %v) built an invalid curve", d, grace)
	return pl
}

// Utility returns the curve's utility at completion time t, by linear
// interpolation.
func (pl *PiecewiseLinear) Utility(t time.Duration) float64 {
	ps := pl.points
	if t <= ps[0].T {
		return ps[0].U
	}
	if t >= ps[len(ps)-1].T {
		return ps[len(ps)-1].U
	}
	// Find the segment containing t.
	i := sort.Search(len(ps), func(i int) bool { return ps[i].T > t }) - 1
	a, b := ps[i], ps[i+1]
	frac := float64(t-a.T) / float64(b.T-a.T)
	// Convex combination rather than a.U + frac*(b.U-a.U): the difference
	// form overflows to ±Inf when the endpoints are near ±MaxFloat64.
	return a.U*(1-frac) + b.U*frac
}

// ShiftEarlier returns a copy of the curve moved earlier in time by delta:
// the returned curve at time t ≥ 0 equals the original at t+delta. The
// control loop uses this to implement the dead zone (§4.3), treating a
// deadline of 60 minutes as one of 57. The copy starts at (0, U(delta)),
// and every vertex after delta follows it, shifted.
func (pl *PiecewiseLinear) ShiftEarlier(delta time.Duration) *PiecewiseLinear {
	// Vertices are sorted, so those after delta are a suffix.
	rest := pl.points[sort.Search(len(pl.points), func(i int) bool { return pl.points[i].T > delta }):]
	ps := make([]Point, 1+len(rest))
	ps[0] = Point{T: 0, U: pl.Utility(delta)}
	for i, p := range rest {
		ps[i+1] = Point{T: p.T - delta, U: p.U}
	}
	return &PiecewiseLinear{points: ps}
}

// Max returns the curve's maximum utility, its largest vertex value. Unlike
// Points it does not allocate.
func (pl *PiecewiseLinear) Max() float64 {
	best := pl.points[0].U
	for _, p := range pl.points {
		if p.U > best {
			best = p.U
		}
	}
	return best
}

// Points returns a copy of the curve's vertices.
func (pl *PiecewiseLinear) Points() []Point {
	return append([]Point(nil), pl.points...)
}

func (pl *PiecewiseLinear) String() string {
	var b strings.Builder
	b.WriteString("utility[")
	for i, p := range pl.points {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%v, %g)", p.T, p.U)
	}
	b.WriteString("]")
	return b.String()
}
