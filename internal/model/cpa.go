package model

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"github.com/jockeysim/jockey/internal/grid"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
)

// Table shape: progress is cut into buckets cells of 1% (cell buckets holds
// p = 1, completion), and each cell keeps a reservoir of at most
// reservoirCap remaining-time samples. Progress is sampled every
// sim.SamplePeriod of each simulated run.
const (
	buckets      = 100
	reservoirCap = 64
)

// CPAConfig parameterizes construction of the C(p, a) table.
type CPAConfig struct {
	// Allocs is the grid of candidate allocations to simulate. Required,
	// ascending and positive.
	Allocs []int
	// RunsPerAlloc is how many simulations feed each allocation's
	// distributions (default 10).
	RunsPerAlloc int
	// Seed drives the simulations.
	Seed uint64
	// Parallelism bounds the worker pool that runs the offline simulations
	// (0 or negative = GOMAXPROCS, the default). The table is bit-identical
	// at any value: each (alloc, run) cell derives its RNG seed
	// independently of the others, workers only fill their own cell's
	// sample slice, and the slices are folded into the table in fixed index
	// order afterwards.
	Parallelism int
}

func (c *CPAConfig) fill() error {
	if len(c.Allocs) == 0 {
		return fmt.Errorf("model: CPAConfig.Allocs is empty")
	}
	prev := 0
	for _, a := range c.Allocs {
		if a <= prev {
			return fmt.Errorf("model: CPAConfig.Allocs must be ascending and positive, got %v", c.Allocs)
		}
		prev = a
	}
	if c.RunsPerAlloc <= 0 {
		c.RunsPerAlloc = 10
	}
	return nil
}

// CPA is the precomputed table of remaining-completion-time distributions
// C(p, a): for each allocation a in the grid and each progress bucket p, a
// bounded sample of observed remaining times from offline simulations.
type CPA struct {
	indicator progress.Indicator
	allocs    []int
	// vals holds every cell's retained remaining-time samples back to back,
	// row by row: cell i = ai*(buckets+1) + b (allocation index ai,
	// progress bucket b) is vals[offs[i]:offs[i+1]]. Every cell is sorted
	// ascending once at build time, so quantile queries index the sorted
	// slice directly (no per-query copy or sort). The cells are therefore
	// shared and READ-ONLY after construction; in `-tags invariantdebug`
	// builds, sums holds a per-cell checksum and samplesAt asserts it on
	// every access.
	vals []time.Duration
	offs []int
	sums []uint64
}

// Builder is the reusable state of C(p, a) builds: one cpaWorker per pool
// worker (its simulation engine and its progress samples), one observation
// buffer per (alloc, run) cell, and the merge's counts. A warm Builder
// allocates only what a returned table keeps. The zero Builder is ready to
// use; a one-shot build is new(Builder).BuildCPAs(...).
//
// A Builder holds the high-water buffers of every build it ran, so only a
// per-replay owner keeps one (DESIGN.md §5). It is not safe for concurrent
// use, but a build fans its own simulations out over a worker pool.
type Builder struct {
	workers []*cpaWorker
	// bufs[idx] holds every indicator's observations of (alloc, run) cell
	// idx, and cellObs[idx*k+j] is indicator j's part of it. A cell's
	// buffer is grown to its exact need before it is filled, so a one-shot
	// build allocates no more than the observations, and a warm build
	// reuses each cell's high-water buffer.
	bufs    [][]obs
	cellObs [][]obs
	seen    []int64
	// The build in flight, read by runCell; cleared when the build returns
	// so an idle Builder pins no profile.
	p      *profile.Profile
	inds   []progress.Indicator
	allocs []int
	runs   int
	seed   uint64
	// one backs BuildCPA's one-indicator list; runCellFn is runCell bound
	// once, so handing it to the worker pool allocates nothing.
	one       [1]progress.Indicator
	runCellFn func(worker, idx int) error
	// The merge's reservoir generator, reseeded for every table.
	src *rand.PCG
	rng *rand.Rand
}

// BuildCPA runs the offline simulator across the allocation grid and builds
// the C(p, a) table, using the supplied indicator to compute progress p —
// the same indicator the control loop will use to index the table at
// runtime. It is BuildCPAs with one indicator.
func (b *Builder) BuildCPA(p *profile.Profile, ind progress.Indicator, cfg CPAConfig) (*CPA, error) {
	b.one[0] = ind
	defer func() { b.one[0] = nil }()
	var out [1]*CPA
	if err := b.build(p, b.one[:], cfg, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// BuildCPAs builds one C(p, a) table per indicator from a single pass of
// offline simulations. The simulations never read the indicator, so each
// (alloc, run) cell is simulated once and every indicator is evaluated on
// each of its progress samples. Table j equals BuildCPA(p, inds[j], cfg)
// exactly: the simulations, the reservoir seed and the merge order are the
// same.
func (b *Builder) BuildCPAs(p *profile.Profile, inds []progress.Indicator, cfg CPAConfig) ([]*CPA, error) {
	out := make([]*CPA, len(inds))
	if err := b.build(p, inds, cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

// build is BuildCPAs writing table j to out[j], so that a one-indicator
// build allocates nothing for its result beyond the table itself.
func (b *Builder) build(p *profile.Profile, inds []progress.Indicator, cfg CPAConfig, out []*CPA) error {
	if p == nil || len(inds) == 0 || slices.Contains(inds, nil) {
		return fmt.Errorf("model: BuildCPA requires a profile and an indicator")
	}
	if err := cfg.fill(); err != nil {
		return err
	}
	b.p, b.inds, b.runs, b.seed = p, inds, cfg.RunsPerAlloc, cfg.Seed
	// The grid is read-only after construction, so the tables share it.
	b.allocs = append([]int(nil), cfg.Allocs...)
	defer func() { b.p, b.inds, b.allocs = nil, nil, nil }()
	k := len(inds)
	// Phase 1 — fan out: every (alloc, run) cell is an independent
	// simulation whose seed depends only on (Seed, alloc, run), so the
	// worker pool can execute cells in any order on any number of
	// goroutines. A worker fills only its own cells' buffers and
	// observation slots; worker identity touches memory reuse only, never
	// results. grid.Run returns the error of the lowest failing cell,
	// whoever ran it.
	nCells := len(b.allocs) * cfg.RunsPerAlloc
	if nw := grid.Workers(cfg.Parallelism, nCells); len(b.workers) < nw {
		b.workers = append(b.workers, make([]*cpaWorker, nw-len(b.workers))...)
	}
	if len(b.bufs) < nCells {
		b.bufs = append(b.bufs, make([][]obs, nCells-len(b.bufs))...)
	}
	b.cellObs = slices.Grow(b.cellObs[:0], nCells*k)[:nCells*k]
	if b.runCellFn == nil {
		b.runCellFn = b.runCell
	}
	if err := grid.Run(nCells, cfg.Parallelism, b.runCellFn); err != nil {
		return err
	}
	for j, ind := range inds {
		out[j] = b.merge(ind, k, j)
	}
	return nil
}

// runCell simulates (alloc, run) cell idx on worker's engine and fills the
// cell's buffer with each indicator's observations of it.
func (b *Builder) runCell(worker, idx int) error {
	w := b.workers[worker]
	if w == nil {
		w = b.newWorker()
		b.workers[worker] = w
	}
	k := len(b.inds)
	alloc := b.allocs[idx/b.runs]
	run := idx % b.runs
	w.samples = w.samples[:0]
	completion, err := w.r.Completion(sim.Config{
		Profile:  b.p,
		Alloc:    alloc,
		Seed:     stats.DeriveSeedLabelInt(b.seed, "cpa", alloc, run),
		OnSample: w.onSample,
	})
	if err != nil {
		return err
	}
	// Every indicator's observations fit, so the appends below never move
	// the buffer that earlier indicators' slots point into.
	buf := slices.Grow(b.bufs[idx][:0], len(w.samples)+2*k)
	for j := range k {
		start := len(buf)
		// t = 0 with p = 0 is always a valid observation.
		buf = append(buf, obs{bucket: 0, v: completion})
		for s := j; s < len(w.samples); s += k {
			remaining := completion - w.samples[s].t
			if remaining < 0 {
				continue
			}
			buf = append(buf, obs{bucket: bucketOf(w.samples[s].p), v: remaining})
		}
		// Completion itself: progress 1 has zero remaining time.
		buf = append(buf, obs{bucket: buckets, v: 0})
		b.cellObs[idx*k+j] = buf[start:len(buf):len(buf)]
	}
	b.bufs[idx] = buf
	return nil
}

// merge builds indicator j's table from the observations of every
// (alloc, run) cell, in fixed index order.
func (b *Builder) merge(ind progress.Indicator, k, j int) *CPA {
	c := &CPA{indicator: ind, allocs: b.allocs}
	nCells := len(b.cellObs) / k
	// Phase 2 — size the table: a cell keeps min(seen, reservoirCap)
	// samples, so counting every cell's observations fixes each cell's
	// offset before any value is placed.
	nb := buckets + 1
	b.seen = slices.Grow(b.seen[:0], len(c.allocs)*nb)[:len(c.allocs)*nb]
	seen := b.seen
	clear(seen)
	for idx := range nCells {
		row := idx / b.runs * nb
		for _, o := range b.cellObs[idx*k+j] {
			seen[row+o.bucket]++
		}
	}
	c.offs = make([]int, len(seen)+1)
	for i, n := range seen {
		c.offs[i+1] = c.offs[i] + int(min(n, reservoirCap))
	}
	c.vals = make([]time.Duration, c.offs[len(seen)])
	// Phase 3 — deterministic merge: replay reservoir sampling (Vitter's
	// algorithm R) over the observations in fixed (alloc, run) index order
	// with one shared RNG — keep while the cell has room, else replace slot
	// Int64N(seen) if it falls inside the cell. This is the exact draw
	// sequence of a sequential build, so the table is bit-identical at any
	// Parallelism. Every indicator's merge starts from the same seed, so a
	// table does not depend on which other indicators shared its pass.
	clear(seen)
	rng := b.reservoirRNG(stats.DeriveSeedLabelInt(b.seed, "cpa-reservoir"))
	for idx := range nCells {
		row := idx / b.runs * nb
		for _, o := range b.cellObs[idx*k+j] {
			i := row + o.bucket
			seen[i]++
			if seen[i] <= reservoirCap {
				c.vals[c.offs[i]+int(seen[i])-1] = o.v
			} else if r := rng.Int64N(seen[i]); r < reservoirCap {
				c.vals[c.offs[i]+int(r)] = o.v
			}
		}
	}
	// Phase 4 — presort: order every cell ascending exactly once, so
	// Remaining is an O(1)-allocation quantile lookup and ExpectedUtility
	// iterates the shared sorted slice. Sorting after the merge preserves
	// each cell's retained multiset, so quantiles equal the old
	// copy-and-sort-per-query values bit for bit
	// (TestPresortedQuantilesMatchReference).
	for i := range seen {
		slices.Sort(c.cell(i))
	}
	if invariant.Debug {
		c.sums = make([]uint64, len(seen))
		for i := range c.sums {
			c.sums[i] = invariant.ChecksumDurations(c.cell(i))
		}
	}
	return c
}

// reservoirRNG returns the merge's generator seeded with seed, created on
// the Builder's first merge and reseeded in place after that.
func (b *Builder) reservoirRNG(seed uint64) *rand.Rand {
	if b.rng == nil {
		b.src = stats.NewSource(seed)
		b.rng = rand.New(b.src)
	} else {
		stats.ReseedSource(b.src, seed)
	}
	return b.rng
}

// obs is one remaining-time observation and the progress bucket it falls in.
type obs struct {
	bucket int
	v      time.Duration
}

// cpaWorker is one Builder worker's reusable state: a simulation engine,
// the progress samples of the run in flight, and the one OnSample callback
// that appends to them, built once per worker rather than once per run.
type cpaWorker struct {
	r *sim.Runner
	// samples holds one entry per (snapshot, indicator): entry s*k+j is
	// snapshot s under the build's indicator j.
	samples  []progressSample
	onSample func(sim.Snapshot)
}

type progressSample struct {
	t time.Duration
	p float64
}

// newWorker returns a worker whose OnSample callback evaluates the
// indicators of b's build in flight.
func (b *Builder) newWorker() *cpaWorker {
	w := &cpaWorker{r: sim.NewRunner()}
	w.onSample = func(s sim.Snapshot) {
		// s.FracDone is the Runner's scratch buffer; Progress consumes it
		// inside the callback, nothing is retained.
		for _, ind := range b.inds {
			w.samples = append(w.samples, progressSample{t: s.Time, p: ind.Progress(s.FracDone)})
		}
	}
	return w
}

// cell returns cell i's samples (see CPA.vals).
func (c *CPA) cell(i int) []time.Duration { return c.vals[c.offs[i]:c.offs[i+1]] }

// bucketOf maps progress p ∈ [0, 1] to one of buckets+1 cells, clamping
// out-of-range values.
func bucketOf(p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return buckets
	}
	return int(p * float64(buckets))
}

// Indicator returns the progress indicator the table was built with.
func (c *CPA) Indicator() progress.Indicator { return c.indicator }

// Allocs returns the allocation grid. The slice is owned by the CPA.
func (c *CPA) Allocs() []int { return c.allocs }

// SnapAlloc returns the grid allocation closest to a (ties go down).
func (c *CPA) SnapAlloc(a int) int { return c.allocs[c.snapIndex(a)] }

// snapIndex returns the index in the grid of SnapAlloc(a).
func (c *CPA) snapIndex(a int) int {
	i := sort.SearchInts(c.allocs, a)
	if i == 0 {
		return 0
	}
	if i == len(c.allocs) {
		return i - 1
	}
	if c.allocs[i]-a < a-c.allocs[i-1] {
		return i
	}
	return i - 1
}

// samplesAt returns the remaining-time samples for progress p at allocation
// a, widening the search to neighbouring progress buckets until it finds a
// non-empty cell. The returned slice is sorted ascending, shared between
// every caller, and READ-ONLY: Remaining and ExpectedUtility consume it
// without copying, so a mutation would silently corrupt every later query.
// Debug builds (-tags invariantdebug) verify a build-time checksum of the
// cell on every access and panic on mutation.
func (c *CPA) samplesAt(p float64, a int) []time.Duration {
	i, ok := c.findCell(p, a)
	if !ok {
		return nil
	}
	return c.readOnly(i, c.cell(i))
}

// findCell locates the cell serving progress p at allocation a, widening
// symmetrically to neighbouring progress buckets (preferring the lower, more
// pessimistic one) until it finds a non-empty cell. It returns the cell's
// index into offs.
//
//jockey:hotpath
func (c *CPA) findCell(p float64, a int) (cell int, ok bool) {
	base := c.snapIndex(a) * (buckets + 1)
	// row[b] and row[b+1] bound bucket b's samples.
	row := c.offs[base : base+buckets+2]
	b := bucketOf(p)
	if row[b+1] > row[b] {
		return base + b, true
	}
	for d := 1; d <= buckets; d++ {
		if lo := b - d; lo >= 0 && row[lo+1] > row[lo] {
			return base + lo, true
		}
		if hi := b + d; hi <= buckets && row[hi+1] > row[hi] {
			return base + hi, true
		}
	}
	return 0, false
}

// readOnly enforces the read-only-cells contract in debug builds: the cell
// being handed out must still hash to its build-time checksum. The Debug
// constant is false in default builds, so the check (and the sums table)
// compiles away.
func (c *CPA) readOnly(i int, vs []time.Duration) []time.Duration {
	if invariant.Debug && c.sums != nil {
		invariant.Assertf(invariant.ChecksumDurations(vs) == c.sums[i],
			"model: C(p,a) cell (alloc=%d, bucket=%d) mutated since build; cell slices are read-only",
			c.allocs[i/(buckets+1)], i%(buckets+1))
	}
	return vs
}

// Progress evaluates the table's indicator on a state.
func (c *CPA) Progress(st State) float64 { return c.indicator.Progress(st.FracDone) }

// Remaining implements Predictor: the q-quantile of C(p, a). Cells are
// sorted at build time, so this is a widening search plus an interpolated
// index — zero allocations per query (pinned by TestCPAQueryZeroAllocs),
// where it previously copied and re-sorted the cell on every call.
func (c *CPA) Remaining(st State, a int, q float64) time.Duration {
	return stats.QuantileDurations(c.samplesAt(c.Progress(st), a), q)
}

// ExpectedUtility implements Predictor: the mean of U(elapsed + slack·C)
// over the sampled remaining times. Averaging over the distribution rather
// than a point estimate reproduces the paper's safety buffer: a heavy upper
// tail of C(p, a) drags expected utility down near the deadline.
func (c *CPA) ExpectedUtility(st State, a int, slack float64, u utility.Fn) float64 {
	samples := c.samplesAt(c.Progress(st), a)
	if len(samples) == 0 {
		return u.Utility(st.Elapsed)
	}
	var sum float64
	for _, rem := range samples {
		t := st.Elapsed + time.Duration(float64(rem)*slack)
		sum += u.Utility(t)
	}
	return sum / float64(len(samples))
}
