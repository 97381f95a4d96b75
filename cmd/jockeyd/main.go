// Command jockeyd replays a deterministic multi-job fleet through the
// arbiter (internal/fleet): it admits a stream of recurring SLO jobs, runs
// one controller per job over a shared simulated cluster, and re-divides
// the global token budget every control epoch.
//
// Usage:
//
//	jockeyd [-seed N] [-arbitration fifo|fair-share|utility-greedy] [-guarded]
//	        [-arrivals N] [-mean-interarrival D] [-load F]
//	        [-machines N] [-slots N] [-budget N] [-drift-every N]
//	        [-outage-at D] [-outage-machines N] [-outage-duration D]
//	        [-parallelism N] [-v]
//
// The replay is bit-identical for a given flag set at any -parallelism.
// -v streams one line per control epoch to stderr; the final per-job table
// goes to stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/fleet"
	"github.com/jockeysim/jockey/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "jockeyd:", err)
		os.Exit(1)
	}
}

// run parses args, replays the fleet, and writes the per-job table to
// stdout and, with -v, the per-epoch stream to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	// ExitOnError keeps the command's exit status 2 on a bad flag.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Uint64("seed", 1, "master seed for arrivals, cluster, and models")
		arb     = fs.String("arbitration", "utility-greedy", "arbitration discipline: fifo, fair-share, or utility-greedy")
		guarded = fs.Bool("guarded", false, "wrap each controller in a guard (requires utility-greedy)")

		arrivals = fs.Int("arrivals", 0, "number of job offers (0 = default)")
		meanIA   = fs.Duration("mean-interarrival", 0, "mean arrival gap before load scaling (0 = default)")
		load     = fs.Float64("load", 0, "load factor multiplying the arrival rate (0 = default 1)")

		machines = fs.Int("machines", 0, "cluster machines (0 = default)")
		slots    = fs.Int("slots", 0, "slots per machine (0 = default)")
		budget   = fs.Int("budget", 0, "global token budget (0 = cluster capacity)")

		driftEvery = fs.Int("drift-every", 0, "every Nth offer drifts from its profile mid-run, its service times doubled (0 = none)")

		outageAt       = fs.Duration("outage-at", 0, "rack outage start (0 = no outage)")
		outageMachines = fs.Int("outage-machines", 0, "machines lost to the outage")
		outageDuration = fs.Duration("outage-duration", 0, "outage length")

		par     = fs.Int("parallelism", 0, "worker pool for offline model builds (0 = GOMAXPROCS); results are identical at any value")
		verbose = fs.Bool("v", false, "stream per-epoch arbitration stats to stderr")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns
	if *par < 0 {
		return fmt.Errorf("-parallelism %d: want 0 (GOMAXPROCS) or a positive worker count", *par)
	}

	cfg := fleet.Config{
		Seed:             *seed,
		Machines:         *machines,
		SlotsPerMachine:  *slots,
		Budget:           *budget,
		Arrivals:         *arrivals,
		MeanInterarrival: *meanIA,
		LoadFactor:       *load,
		Arbitration:      fleet.Arbitration(*arb),
		Guarded:          *guarded,
		DriftEvery:       *driftEvery,
	}
	if *outageAt > 0 || *outageMachines > 0 || *outageDuration > 0 {
		cfg.RackOutages = []cluster.RackOutage{{
			At:           *outageAt,
			FirstMachine: 0,
			Machines:     *outageMachines,
			Duration:     *outageDuration,
		}}
	}
	if *par > 0 {
		// Same derived seed fleet.Run would use for its private cache, so
		// -parallelism changes only the build speed, never the replay.
		models := fleet.NewModelCache(stats.DeriveSeed(*seed, "fleet-models"))
		models.SetParallelism(*par)
		cfg.Models = models
	}
	if *verbose {
		cfg.OnEpoch = func(s fleet.EpochStats) {
			// bidders/heapops expose the arbiter's per-epoch cost (the
			// fleet-scale contract: heap ops stay linear in active jobs).
			fmt.Fprintf(stderr, "[%8s] active %2d granted %3d/%-3d deferred %d rejected %d latched %d bidders %d heapops %d\n",
				s.At.Truncate(time.Second), s.Active, s.Granted, s.Budget, s.Deferred, s.Rejected, s.Latched, s.Bidders, s.HeapOps)
		}
	}

	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, res.Render())
	return err
}
