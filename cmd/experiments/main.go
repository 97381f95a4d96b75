// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated cluster and writes the results as text tables
// (plus CSV timelines and DOT graphs where applicable).
//
// Usage:
//
//	experiments [-seed N] [-out DIR] [-quick] [-run LIST] [-parallelism N] [-parallel N]
//	            [-flight-level none|decisions|counterfactual]
//
// The artifacts and their quick and full run counts come from one
// registry, experiments.Artifacts, which runs them in this order. -run
// selects a comma-separated, case-insensitive subset of:
// table1,fig1,table2,fig3,fig4,fig5,fig6,table3,fig7,fig8,fig9,fig10,fig11,fig12,ext1,ext2,robustness,fleet,fig13
// (fig4 and fig5 share one set of runs and always run together). An
// unknown name exits with status 1 and lists the valid names.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/jockeysim/jockey/internal/experiments"
	"github.com/jockeysim/jockey/internal/flight"
)

func main() {
	var (
		seed  = flag.Uint64("seed", 1, "master seed for all experiments")
		out   = flag.String("out", "", "directory for result files (default: stdout only)")
		quick = flag.Bool("quick", false, "smaller run counts (for smoke testing)")
		run   = flag.String("run", "", "comma-separated subset of "+strings.Join(experiments.RunNames(), ",")+" (default: all)")
		par   = flag.Int("parallelism", 0, "worker pool size for offline model simulations (0 = GOMAXPROCS); results are identical at any value")
		gpar  = flag.Int("parallel", 0, "worker pool size for experiment grid points (0 = GOMAXPROCS); results are identical at any value")

		flightLvl = flag.String("flight-level", "none", "decision flight recorder for the robustness grid: none, decisions or counterfactual; -out receives one JSON record per run")
	)
	flag.Parse()
	flightLevel, err := flight.ParseLevel(*flightLvl)
	if err != nil {
		fatal(err)
	}
	artifacts, err := experiments.Select(*run)
	if err != nil {
		fatal(err)
	}

	env := experiments.NewEnv(*seed)
	env.Parallelism = *par
	env.GridParallel = *gpar
	opts := experiments.Options{Quick: *quick, Flight: flightLevel}
	for _, a := range artifacts {
		step(a.Title)
		files, err := a.Run(env, opts)
		if err != nil {
			fatal(err)
		}
		for _, f := range files {
			if f.Kind == experiments.TableFile {
				fmt.Println(f.Text)
			}
			if *out == "" {
				continue
			}
			if err := os.WriteFile(filepath.Join(*out, f.Name), []byte(f.Text), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}

var start = time.Now()

func step(msg string) {
	fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), msg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
