// Command bench is the repository's end-to-end benchmark. It times the
// three things people run — the paper reproduction, jockeyd fleet replays
// and the cosmos-scale cluster replay — through the library's public
// calls, checks their outputs, and prints one "name value unit" line per
// metric followed by a one-line JSON summary.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload paper|fleet-scale|fleet-guarded|cosmos \
//	    [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR] [-input-seed N]
//
// (flags also take the --name form). Every run of a workload replays the
// same instance, the one its default input seed makes, whatever -seed says:
// two runs of one commit, and a parent and its change, then time identical
// simulated work, and the deterministic metrics (allocations, live heap,
// SLO attainment) repeat exactly. -input-seed replays another instance.
//
// A timed run (-trace 0) prints the end-to-end metrics, its times divided
// by the host's slowdown as a probe measures it (speed.go). A traced run
// (-trace 1) repeats the workload with harness-side spans, observer
// callbacks and CPU profiles, prints the per-layer metrics, and writes
// DIR/spans.jsonl plus one CPU profile per set-up and traced repetition.
// README.md defines every workload and metric. The exit status is non-zero
// when any set-up or repetition fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// specs are the benchmark's workloads, in BENCHMARK.json order.
var specs = []spec{
	{name: "paper", seed: 1, setups: 2, minReps: 1, build: newPaper},
	{name: "fleet-scale", seed: 11, setups: 3, minReps: 16, build: newFleet(fleetScaleFlags, 2000)},
	{name: "fleet-guarded", seed: 11, setups: 3, minReps: 10, build: newFleet(fleetGuardedFlags, 0)},
	{name: "cosmos", seed: 1848, setups: 3, minReps: 25, build: newCosmos},
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: "+strings.Join(specNames(), ", "))
		_         = flag.Uint64("seed", 0, "run seed; it names the run and leaves the input unchanged")
		inputSeed = flag.Uint64("input-seed", 0, "replay another instance of the workload (default: the workload's own seed)")
		seconds   = flag.Float64("seconds", 10, "how long the warm repetitions run, at least")
		traced    = flag.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		traceDir  = flag.String("trace-dir", "", "directory for a traced run's spans and CPU profiles (default .bench_build/trace/<workload>)")
	)
	flag.Parse()
	sp, ok := lookup(*name)
	if !ok || flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "bench: want -workload %s [-seed N] [-seconds S] [-trace 0|1] [-input-seed N]\n", strings.Join(specNames(), "|"))
		os.Exit(2)
	}
	opt := options{
		seed:     sp.seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		traceDir: *traceDir,
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "input-seed" {
			opt.seed = *inputSeed
		}
	})
	if opt.traceDir == "" {
		opt.traceDir = filepath.Join(".bench_build", "trace", sp.name)
	}
	r := measure(sp, opt)
	err := r.write(os.Stdout)
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "bench:", e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

func lookup(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}
