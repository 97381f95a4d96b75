package fleet

import (
	"fmt"
	"math"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// arrival is one recurring SLO job offered to the arbiter: a shape drawn
// from the canonical pool, a business value (the height of its utility
// step), and a deadline budget expressed as a multiple of the shape's
// model-predicted latency at a mid-grid allocation.
type arrival struct {
	id    int
	at    time.Duration
	shape Shape
	// value scales the job's utility curve (paper §3: "the importance
	// (weight) of the job"). Also the job's spare-token weight.
	value int
	// deadline is the SLO relative to arrival time.
	deadline time.Duration
	// drift marks the job's ground truth to diverge from its profile
	// mid-run (service times inflate by driftFactor).
	drift bool
}

// fleetShapes is the quantized shape table arrivals draw from. Keeping it
// small means a whole load × fault experiment grid shares four profiles and
// four C(p, a) models through one ModelCache.
var fleetShapes = []Shape{
	{Tasks: 64},
	{Tasks: 96, Barrier: true},
	{Tasks: 144},
	{Tasks: 192, Barrier: true},
}

// deadline tightness multipliers: 1.3× the mid-grid predicted latency is a
// tight SLO (needs roughly the mid-grid allocation to hold), 2.3× is slack
// (feasible at a small allocation).
var fleetTightness = []float64{1.3, 1.7, 2.3}

// job values: most jobs are ordinary, a few are 4× as important.
var fleetValues = []int{1, 1, 2, 4}

// genArrivals draws the deterministic arrival stream. All randomness comes
// from DeriveSeed(cfg.Seed, "fleet-arrivals"); deadlines are resolved
// through the shared model cache, whose models depend only on its own seed
// and the shape key — so the stream is bit-identical however the cache is
// warmed.
func genArrivals(cfg *Config, models *ModelCache) ([]arrival, error) {
	rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "fleet-arrivals"))
	mean := float64(cfg.MeanInterarrival) / cfg.LoadFactor
	arrivals := make([]arrival, 0, cfg.Arrivals)
	at := time.Duration(0)
	for i := 0; i < cfg.Arrivals; i++ {
		// Draw in a fixed field order so the stream is stable under
		// refactoring of any single field's choices.
		gap := rng.ExpFloat64() * mean
		shape := fleetShapes[rng.IntN(len(fleetShapes))]
		if rng.IntN(2) == 1 {
			shape.Scale = 1.2
		}
		tight := fleetTightness[rng.IntN(len(fleetTightness))]
		value := fleetValues[rng.IntN(len(fleetValues))]
		// A tiny load factor stretches the gaps past time.Duration's range.
		if !(gap < math.MaxInt64) || time.Duration(gap) > math.MaxInt64-at {
			return nil, fmt.Errorf("fleet: offer %d arrives after the largest time.Duration; load factor %v is too small", i, cfg.LoadFactor)
		}
		at += time.Duration(gap)
		jk, err := models.Model(shape)
		if err != nil {
			return nil, fmt.Errorf("fleet: model for %s: %w", shape.Key(), err)
		}
		// The deadline budget is tightness × the model's predicted latency
		// at the mid-grid allocation, rounded to whole seconds so rendered
		// records stay readable.
		base := jk.PredictLatency(jk.Model().SnapAlloc(DefaultMaxTokens/2), 1.0)
		deadline := time.Duration(tight * float64(base)).Round(time.Second)
		drift := cfg.DriftEvery > 0 && (i+1)%cfg.DriftEvery == 0
		arrivals = append(arrivals, arrival{
			id:       i,
			at:       at,
			shape:    shape,
			value:    value,
			deadline: deadline,
			drift:    drift,
		})
	}
	return arrivals, nil
}
