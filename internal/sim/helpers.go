package sim

import (
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/trace"
)

// RunInfinite simulates the job with unconstrained parallelism and no
// failure injection. Its completion time approximates the critical path and
// its per-stage spans parameterize the minstage-inf progress indicator
// ("a simulation of the job with no constraint on resources", §5.4).
func RunInfinite(p *profile.Profile, seed uint64) (*trace.JobTrace, error) {
	return NewRunner().Run(Config{
		Profile:    p,
		Alloc:      p.Job.TotalTasks(),
		Seed:       seed,
		noFailures: true,
	})
}
