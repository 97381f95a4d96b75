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
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/jockeysim/jockey/internal/experiments"
	"github.com/jockeysim/jockey/internal/flight"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args, renders the selected artifacts and writes their tables
// to stdout and progress notes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	// ExitOnError keeps the command's exit status 2 on a bad flag.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		seed  = fs.Uint64("seed", 1, "master seed for all experiments")
		out   = fs.String("out", "", "directory for result files (default: stdout only)")
		quick = fs.Bool("quick", false, "smaller run counts (for smoke testing)")
		runs  = fs.String("run", "", "comma-separated subset of "+strings.Join(experiments.RunNames(), ",")+" (default: all)")
		par   = fs.Int("parallelism", 0, "worker pool size for offline model simulations (0 = GOMAXPROCS); results are identical at any value")
		gpar  = fs.Int("parallel", 0, "worker pool size for experiment grid points (0 = GOMAXPROCS); results are identical at any value")

		flightLvl = fs.String("flight-level", "none", "decision flight recorder for the robustness grid: none, decisions or counterfactual; -out receives one JSON record per run")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns
	start := time.Now()
	if *par < 0 {
		return fmt.Errorf("-parallelism %d: want 0 (GOMAXPROCS) or a positive worker count", *par)
	}
	if *gpar < 0 {
		return fmt.Errorf("-parallel %d: want 0 (GOMAXPROCS) or a positive worker count", *gpar)
	}
	flightLevel, err := flight.ParseLevel(*flightLvl)
	if err != nil {
		return err
	}
	artifacts, err := experiments.Select(*runs)
	if err != nil {
		return err
	}

	env := experiments.NewEnv(*seed)
	env.Parallelism = *par
	env.GridParallel = *gpar
	opts := experiments.Options{Quick: *quick, Flight: flightLevel}
	for _, a := range artifacts {
		fmt.Fprintf(stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), a.Title)
		files, err := a.Run(env, opts)
		if err != nil {
			return err
		}
		for _, f := range files {
			if f.Kind == experiments.TableFile {
				fmt.Fprintln(stdout, f.Text)
			}
			if *out == "" {
				continue
			}
			if err := os.WriteFile(filepath.Join(*out, f.Name), []byte(f.Text), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
