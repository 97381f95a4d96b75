package workload

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
)

// BackgroundConfig describes the non-SLO jobs that share the cluster and
// make spare capacity fluctuate. Arrivals are Poisson; sizes, durations and
// guarantees vary per job. Everything but the arrival rate and the seed is
// the fixed shape of §5.1's environment (see the constants below).
type BackgroundConfig struct {
	// MeanInterarrival between job submissions (default 3 minutes).
	MeanInterarrival time.Duration
	// Seed drives the generator.
	Seed uint64
}

// The fixed shape of the background fleet.
const (
	// Jobs arrive in [0, bgHorizon).
	bgHorizon = 6 * time.Hour
	// Per-job task count and guaranteed tokens are uniform on these bounds.
	bgTasksLo, bgTasksHi         = 50, 400
	bgGuaranteeLo, bgGuaranteeHi = 1, 3
	// bgBarrierProb is the chance a background job carries a reduce stage,
	// adding barrier-induced burstiness.
	bgBarrierProb = 0.5
	// The arrival rate follows a square wave: during the busy half of each
	// bgBurstPeriod arrivals come bgBurstAmplitude× faster, during the quiet
	// half bgBurstAmplitude× slower. This makes spare capacity fluctuate the
	// way the paper observes (§2.4: 5%–80% of an SLO job's vertices ran on
	// spare tokens depending on the moment).
	bgBurstPeriod    = 40 * time.Minute
	bgBurstAmplitude = 3
)

// bgTaskDuration is the per-task service time of every background job
// (lognormal, median 20s / p90 90s). Typed as the interface so building a
// profile does not box the struct again.
var bgTaskDuration stats.Distribution = stats.LognormalFromMedian(20*time.Second, 90*time.Second)

// fill applies the default arrival rate; a zero gap would never advance the
// arrival clock.
func (c *BackgroundConfig) fill() {
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 3 * time.Minute
	}
}

// BackgroundPool submits background fleets and caches their plans and
// profiles across fleets, so repeated runs over the same BackgroundConfig
// (an experiment grid worker re-simulating the same environment hundreds
// of times) stop rebuilding a DAG and a profile per job. Jobs carry
// canonical shape-derived names ("bg-120", "bgb-120"); a fleet replays
// bit-identically from a fresh pool and from one reused across fleets —
// TestBackgroundPoolBitIdentical pins this.
//
// A cluster.Engine reuses background jobs' task sets whatever their plans:
// an arriving job takes the tightest free set that holds its plan,
// reshaping it unless it is of the plan, so the fleet's hundreds of shapes
// share one free list. A job takes a set only when it
// arrives, so the many background jobs a replay submits but never reaches
// cost a jobRun each. A pool is not safe for concurrent use (one per grid
// worker).
type BackgroundPool struct {
	plain   map[int]*profile.Profile // key: map-stage task count
	barrier map[int]*profile.Profile
}

// NewBackgroundPool returns an empty plan/profile pool.
func NewBackgroundPool() *BackgroundPool {
	return &BackgroundPool{
		plain:   make(map[int]*profile.Profile),
		barrier: make(map[int]*profile.Profile),
	}
}

// SubmitBackground pre-schedules a fleet of background jobs on the cluster
// and returns how many were submitted. Call before cluster.Run.
func (p *BackgroundPool) SubmitBackground(c *cluster.Cluster, cfg BackgroundConfig) (int, error) {
	cfg.fill()
	rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, "background"))
	n := 0
	for at := time.Duration(0); at < bgHorizon; {
		gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		if (at/bgBurstPeriod)%2 == 0 {
			gap = time.Duration(float64(gap) / bgBurstAmplitude)
		} else {
			gap = time.Duration(float64(gap) * bgBurstAmplitude)
		}
		at += gap
		if at >= bgHorizon {
			break
		}
		tasks := bgTasksLo + rng.IntN(bgTasksHi-bgTasksLo+1)
		barrier := rng.Float64() < bgBarrierProb
		prof, err := p.profileFor(tasks, barrier)
		if err != nil {
			return n, err
		}
		guarantee := bgGuaranteeLo + rng.IntN(bgGuaranteeHi-bgGuaranteeLo+1)
		if _, err := c.Submit(cluster.JobConfig{
			Profile:   prof,
			Guarantee: guarantee,
			Start:     at,
		}); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// profileFor returns the pooled profile for a job shape, building and
// caching it on first use.
func (p *BackgroundPool) profileFor(tasks int, barrier bool) (*profile.Profile, error) {
	cache := p.plain
	if barrier {
		cache = p.barrier
	}
	if prof, ok := cache[tasks]; ok {
		return prof, nil
	}
	prof, err := ShapeProfile(tasks, barrier)
	if err != nil {
		return nil, err
	}
	cache[tasks] = prof
	return prof, nil
}

// ShapeProfile builds the canonical plan and profile of one background job
// shape: `tasks` map tasks, optionally followed by an all-to-all reduce
// stage (barrier), named after the shape ("bg-N" / "bgb-N"). It draws
// nothing from any RNG, so callers can cache its result without shifting a
// fleet generator's stream. The fleet arbiter draws its SLO-job shapes from
// here.
func ShapeProfile(tasks int, barrier bool) (*profile.Profile, error) {
	if tasks < 1 {
		return nil, fmt.Errorf("workload: shape needs at least one task, got %d", tasks)
	}
	if barrier {
		name := fmt.Sprintf("bgb-%d", tasks)
		reducers := tasks / 8
		if reducers < 1 {
			reducers = 1
		}
		job := dag.NewBuilder(name).
			Stage("map", tasks).
			Stage("reduce", reducers).
			Edge("map", "reduce", dag.AllToAll).
			MustBuild()
		return profile.New(job, []profile.StageProfile{
			{Exec: bgTaskDuration, Queue: DefaultQueueDelay(), FailureProb: 0.01},
			{Exec: stats.Scaled{Base: bgTaskDuration, Factor: 2}, Queue: DefaultQueueDelay(), FailureProb: 0.01},
		})
	}
	job := dag.NewBuilder(fmt.Sprintf("bg-%d", tasks)).Stage("map", tasks).MustBuild()
	return profile.New(job, []profile.StageProfile{
		{Exec: bgTaskDuration, Queue: DefaultQueueDelay(), FailureProb: 0.01},
	})
}
