package model

// The retired C(p, a) build, kept as the reference the flat table is diffed
// against: every (alloc, run) simulation recorded a full trace, and its
// observations were folded one by one into a per-cell reservoir object.
// BuildCPA now sizes each cell from its observation count and replays the
// same reservoir draws into one flat array; TestCPAMatchesReservoirReference
// pins the two to the same cells, value for value.

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
)

// reservoir keeps a bounded uniform random sample of a stream of durations
// (Vitter's algorithm R).
type reservoir struct {
	cap  int
	seen int64
	vals []time.Duration
}

func newReservoir(capacity int) *reservoir {
	if capacity <= 0 {
		capacity = 1
	}
	return &reservoir{cap: capacity}
}

// Add offers a value; r selects which retained sample to replace once the
// reservoir is full.
func (rv *reservoir) Add(v time.Duration, r interface{ Int64N(int64) int64 }) {
	rv.seen++
	if len(rv.vals) < rv.cap {
		rv.vals = append(rv.vals, v)
		return
	}
	if j := r.Int64N(rv.seen); j < int64(rv.cap) {
		rv.vals[j] = v
	}
}

func (rv *reservoir) Len() int                { return len(rv.vals) }
func (rv *reservoir) Seen() int64             { return rv.seen }
func (rv *reservoir) Values() []time.Duration { return rv.vals }

// buildCPAReference is the retired sequential build: one traced simulation
// per (alloc, run) in index order, each observation added to its cell's
// reservoir with the shared "cpa-reservoir" RNG, every cell sorted last.
func buildCPAReference(t testing.TB, p *profile.Profile, ind progress.Indicator, cfg CPAConfig) [][]*reservoir {
	t.Helper()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	cells := make([][]*reservoir, len(cfg.Allocs))
	for ai := range cells {
		cells[ai] = make([]*reservoir, buckets+1)
		for b := range cells[ai] {
			cells[ai][b] = newReservoir(reservoirCap)
		}
	}
	rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "cpa-reservoir"))
	r := sim.NewRunner()
	for ai, alloc := range cfg.Allocs {
		for run := 0; run < cfg.RunsPerAlloc; run++ {
			type sample struct {
				t time.Duration
				p float64
			}
			var samples []sample
			tr, err := r.Run(sim.Config{
				Profile: p,
				Alloc:   alloc,
				Seed:    stats.DeriveSeed(cfg.Seed, "cpa", strconv.Itoa(alloc), strconv.Itoa(run)),
				OnSample: func(s sim.Snapshot) {
					samples = append(samples, sample{t: s.Time, p: ind.Progress(s.FracDone)})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			cells[ai][0].Add(tr.Completion, rng)
			for _, s := range samples {
				if rem := tr.Completion - s.t; rem >= 0 {
					cells[ai][bucketOf(s.p)].Add(rem, rng)
				}
			}
			cells[ai][buckets].Add(0, rng)
		}
	}
	for ai := range cells {
		for _, rv := range cells[ai] {
			slices.Sort(rv.vals)
		}
	}
	return cells
}

// evicts reports whether some cell of a reference build saw more than
// reservoirCap observations, so that the build replaced retained samples.
func evicts(cells [][]*reservoir) bool {
	for _, row := range cells {
		for _, rv := range row {
			if rv.Seen() > reservoirCap {
				return true
			}
		}
	}
	return false
}

// cpaFromCells lays hand-made per-cell samples out the way BuildCPA does;
// cells[ai] must hold buckets+1 cells, each already sorted.
func cpaFromCells(ind progress.Indicator, allocs []int, cells [][][]time.Duration) *CPA {
	c := &CPA{indicator: ind, allocs: allocs, offs: []int{0}}
	for _, row := range cells {
		for _, vs := range row {
			c.vals = append(c.vals, vs...)
			c.offs = append(c.offs, len(c.vals))
		}
	}
	return c
}

// diffCPA fails unless every cell of got holds exactly the reference
// reservoir's retained samples.
func diffCPA(t *testing.T, label string, want [][]*reservoir, got *CPA) {
	t.Helper()
	nb := buckets + 1
	if len(got.offs) != len(want)*nb+1 {
		t.Fatalf("%s: %d cells, want %d", label, len(got.offs)-1, len(want)*nb)
	}
	for ai := range want {
		for b, rv := range want[ai] {
			if gv := got.cell(ai*nb + b); !slices.Equal(gv, rv.Values()) {
				t.Fatalf("%s: cell (a=%d, b=%d) = %d samples %v, reference %d samples %v",
					label, got.allocs[ai], b, len(gv), gv, rv.Len(), rv.Values())
			}
		}
	}
}

// failingQueueProfile adds queue delays, a one-to-one pipeline and higher
// failure rates to the shapes the other fixtures cover.
func failingQueueProfile(t testing.TB) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("pipeline").
		Stage("extract", 24).
		Stage("transform", 24).
		Stage("load", 5).
		Edge("extract", "transform", dag.OneToOne).
		Edge("transform", "load", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(6*time.Second, 30*time.Second),
			Queue: stats.Exponential{MeanValue: 3 * time.Second}, FailureProb: 0.1},
		{Exec: stats.LognormalFromMedian(9*time.Second, 25*time.Second), FailureProb: 0.05},
		{Exec: stats.LognormalFromMedian(25*time.Second, 60*time.Second)},
	})
}

// TestCPAMatchesReservoirReference diffs BuildCPA against the retired
// reservoir build cell by cell, across profiles, indicators and worker
// counts. More runs per allocation than a cell's reservoir holds make every
// build replace retained samples: the first and the last progress cell take
// one observation per run.
func TestCPAMatchesReservoirReference(t *testing.T) {
	type fixture struct {
		name string
		p    *profile.Profile
	}
	fixtures := []fixture{
		{"det", detProfile(t)},
		{"noisy", noisyProfile(t)},
		{"pipeline", failingQueueProfile(t)},
	}
	for _, f := range fixtures {
		indicators := []progress.Indicator{
			progress.NewTotalWorkWithQ(f.p),
			progress.NewTotalWork(f.p),
			progress.NewVertexFrac(f.p),
		}
		for i, ind := range indicators {
			cfg := CPAConfig{
				Allocs:       []int{1, 3, 8, 30},
				RunsPerAlloc: reservoirCap + 6,
				Seed:         77,
			}
			want := buildCPAReference(t, f.p, ind, cfg)
			if !evicts(want) {
				t.Fatalf("%s/indicator %d: no cell overflowed; the replacement path is untested", f.name, i)
			}
			for _, par := range []int{1, 4, 8} {
				cfg.Parallelism = par
				got, err := new(Builder).BuildCPA(f.p, ind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				diffCPA(t, f.name+"/indicator "+strconv.Itoa(i)+"/par "+strconv.Itoa(par), want, got)
			}
		}
	}
}

func TestReservoirBelowCapacityKeepsAll(t *testing.T) {
	rv := newReservoir(10)
	r := stats.NewRNG(1)
	for i := 1; i <= 5; i++ {
		rv.Add(time.Duration(i), r)
	}
	if rv.Len() != 5 || rv.Seen() != 5 {
		t.Fatalf("len=%d seen=%d", rv.Len(), rv.Seen())
	}
}

func TestReservoirBoundedAndUniformish(t *testing.T) {
	const capacity, n = 100, 10000
	rv := newReservoir(capacity)
	r := stats.NewRNG(2)
	for i := 0; i < n; i++ {
		rv.Add(time.Duration(i), r)
	}
	if rv.Len() != capacity {
		t.Fatalf("len = %d, want %d", rv.Len(), capacity)
	}
	if rv.Seen() != n {
		t.Fatalf("seen = %d", rv.Seen())
	}
	// A uniform sample of 0..n-1 should have mean near n/2.
	var sum float64
	for _, v := range rv.Values() {
		sum += float64(v)
	}
	mean := sum / capacity
	if mean < n*0.35 || mean > n*0.65 {
		t.Errorf("reservoir mean %.0f suggests bias (want ~%d)", mean, n/2)
	}
}

func TestReservoirZeroCapacity(t *testing.T) {
	rv := newReservoir(0)
	r := stats.NewRNG(3)
	rv.Add(time.Second, r)
	rv.Add(2*time.Second, r)
	if rv.Len() != 1 {
		t.Fatalf("capacity-0 reservoir should clamp to 1, got len %d", rv.Len())
	}
}
