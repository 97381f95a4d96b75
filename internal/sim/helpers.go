package sim

import (
	"time"

	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/trace"
)

// RunInfinite simulates the job with unconstrained parallelism and no
// failure injection. Its completion time approximates the critical path and
// its per-stage spans parameterize the minstage-inf progress indicator
// ("a simulation of the job with no constraint on resources", §5.4).
func RunInfinite(p *profile.Profile, seed uint64) (*trace.JobTrace, error) {
	return NewRunner().Run(Config{
		Profile:         p,
		Alloc:           p.Job.TotalTasks(),
		Seed:            seed,
		DisableFailures: true,
	})
}

// EstimateLatency runs the simulator n times at the given allocation and
// returns the observed completion times, sorted ascending. Seeds are derived
// from seed so results are reproducible. The n runs share one Runner, so
// only the first pays the engine allocation.
func EstimateLatency(p *profile.Profile, alloc, n int, seed uint64) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	r := NewRunner()
	for i := 0; i < n; i++ {
		tr, err := r.Run(Config{Profile: p, Alloc: alloc, Seed: seed + uint64(i)*0x9e37})
		if err != nil {
			return nil, err
		}
		out = append(out, tr.Completion)
	}
	sortDur(out)
	return out, nil
}

func sortDur(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}
