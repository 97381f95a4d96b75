// Command jockey runs one of the paper's evaluation jobs (A–G) on the
// simulated shared cluster under a chosen allocation policy and prints the
// allocation timeline and outcome — a one-shot view of what the control
// loop does.
//
// Usage:
//
//	jockey -job F -deadline 30m -policy jockey [-seed N] [-slack 1.2]
//	       [-hysteresis 0.2] [-deadzone 3m] [-period 1m] [-indicator totalworkWithQ]
//	       [-scale 1.0] [-csv timeline.csv] [-parallelism N]
//	       [-drift-factor 2.0 -drift-at 6m]
//	       [-flight-level none|decisions|counterfactual] [-flight record.json]
//
// Policies: jockey, jockey-no-adapt, jockey-no-sim, max-allocation (the
// four of the paper's evaluation), jockey-guarded and jockey-online.
// With -deadline 0 the tool picks the job's standard short deadline.
// jockey-guarded wraps the controller in the model-staleness guard rails
// (deviation detection, online re-profiling, max-allocation panic);
// -drift-factor/-drift-at inject an all-stage service-time drift to watch
// the guard react. jockey-online drives the controller with online forward
// simulation instead of the C(p,a) table.
// -flight-level turns on the decision flight recorder (per-tick mechanisms
// and top-K candidates; "counterfactual" adds hindsight constant-allocation
// replays and a regret report); -flight writes the record as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/experiments"
	"github.com/jockeysim/jockey/internal/flight"
	"github.com/jockeysim/jockey/internal/utility"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "jockey:", err)
		os.Exit(1)
	}
}

// run parses args, runs the job, and writes the timeline and outcome to
// stdout and progress notes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	// ExitOnError keeps the command's exit status 2 on a bad flag.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		job       = fs.String("job", "F", "evaluation job name (A..G)")
		deadline  = fs.Duration("deadline", 0, "SLO deadline (0 = the job's standard short deadline)")
		policy    = fs.String("policy", "jockey", "allocation policy: jockey | jockey-no-adapt | jockey-no-sim | max-allocation | jockey-guarded | jockey-online")
		seed      = fs.Uint64("seed", 1, "run seed")
		slack     = fs.Float64("slack", 0, "slack factor (0 = default 1.2)")
		hyst      = fs.Float64("hysteresis", 0, "hysteresis α (0 = default 0.2)")
		deadzone  = fs.Duration("deadzone", 0, "dead zone (0 = default 3m, negative disables)")
		period    = fs.Duration("period", 0, "control period (0 = default 1m)")
		indicator = fs.String("indicator", "", "progress indicator (default totalworkWithQ)")
		scale     = fs.Float64("scale", 0, "input-size scale factor (0 = per-run jitter)")
		csvPath   = fs.String("csv", "", "write the allocation timeline as CSV to this file")
		utilSpec  = fs.String("utility", "", `custom utility curve, e.g. "deadline 60m", "soft 1h grace 20m" or "0:1, 60m:1, 70m:-1"`)
		profOut   = fs.String("save-profile", "", "write the job's training profile as JSON to this file")
		traceOut  = fs.String("save-trace", "", "write the run's full task trace as JSON to this file")
		par       = fs.Int("parallelism", 0, "worker pool size for offline model simulations (0 = GOMAXPROCS); results are identical at any value")
		driftFac  = fs.Float64("drift-factor", 0, "inject an all-stage service-time drift of this factor (0 = none)")
		driftAt   = fs.Duration("drift-at", 0, "when the injected drift starts, relative to job start")
		flightLvl = fs.String("flight-level", "none", "decision flight recorder: none, decisions or counterfactual")
		flightOut = fs.String("flight", "", "write the flight record as JSON to this file (implies -flight-level decisions)")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns
	if *par < 0 {
		return fmt.Errorf("-parallelism %d: want 0 (GOMAXPROCS) or a positive worker count", *par)
	}
	if *deadline < 0 {
		return fmt.Errorf("-deadline %v: want 0 (the job's standard short deadline) or a positive duration", *deadline)
	}
	if *period != 0 && *period < cluster.MinControlPeriod {
		return fmt.Errorf("-period %v: want 0 (the default 1m) or at least %v", *period, cluster.MinControlPeriod)
	}
	if *driftAt != 0 && *driftFac == 0 {
		return fmt.Errorf("-drift-at %v needs a -drift-factor", *driftAt)
	}
	pol := experiments.PolicyKind(*policy)
	flightLevel, err := flight.ParseLevel(*flightLvl)
	if err != nil {
		return err
	}
	if *flightOut != "" && flightLevel == flight.LevelNone {
		flightLevel = flight.LevelDecisions
	}

	env := experiments.NewEnv(*seed)
	env.Parallelism = *par
	d := *deadline
	if d == 0 {
		short, _, err := env.Deadlines(*job)
		if err != nil {
			return err
		}
		d = short
		fmt.Fprintf(stderr, "using the job's standard short deadline: %v\n", d)
	}
	var u *utility.PiecewiseLinear
	if *utilSpec != "" {
		var err error
		if u, err = utility.Parse(*utilSpec); err != nil {
			return err
		}
	}
	if *profOut != "" {
		prof, err := env.Training(*job)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(prof, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*profOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "training profile written to %s\n", *profOut)
	}
	// Every factor but 0 goes to the cluster, which rejects one that is not
	// positive and finite.
	var drifts []cluster.StageDrift
	if *driftFac != 0 {
		drifts = []cluster.StageDrift{{At: *driftAt, Stage: -1, Factor: *driftFac}}
	}
	out, record, err := env.RunFlight(experiments.NewExec(), experiments.SLORun{
		Job:        *job,
		Deadline:   d,
		Policy:     pol,
		Seed:       *seed,
		InputScale: *scale,
		Utility:    u,
		Drifts:     drifts,
		TaskEvents: *traceOut != "",
		Knobs: experiments.Knobs{
			Slack:      *slack,
			Hysteresis: *hyst,
			DeadZone:   *deadzone,
			Period:     *period,
			Indicator:  core.IndicatorName(*indicator),
		},
	}, experiments.FlightConfig{Level: flightLevel})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "job %s under %s, deadline %v\n\n", *job, *policy, d)
	if pol == experiments.PolicyJockeyGuarded {
		fmt.Fprintln(stdout, "  t[min]  raw  granted  running  oracle  progress  predicted[min]  dev   mode")
		for _, p := range out.Trace.Timeline {
			fmt.Fprintf(stdout, "  %6.1f  %3d  %7d  %7d  %6d  %7.0f%%  %14.1f  %4.2f  %s\n",
				p.T.Minutes(), p.Raw, p.Granted, p.Running, p.Oracle,
				100*p.Progress, p.Predicted.Minutes(), p.Deviation, p.Mode)
		}
	} else {
		fmt.Fprintln(stdout, "  t[min]  raw  granted  running  oracle  progress  predicted[min]")
		for _, p := range out.Trace.Timeline {
			fmt.Fprintf(stdout, "  %6.1f  %3d  %7d  %7d  %6d  %7.0f%%  %14.1f\n",
				p.T.Minutes(), p.Raw, p.Granted, p.Running, p.Oracle,
				100*p.Progress, p.Predicted.Minutes())
		}
	}
	for _, ev := range out.GuardEvents {
		fmt.Fprintf(stdout, "guard: t=%v %s %s -> %s (deviation %.2f, live samples %d)\n",
			ev.At, ev.Kind, ev.From, ev.To, ev.Deviation, ev.LiveSamples)
	}
	fmt.Fprintf(stdout, "\ncompleted in %v — %.0f%% of the deadline — SLO met: %v\n",
		out.Completion.Round(time.Second), 100*out.RelCompletion, out.Met)
	fmt.Fprintf(stdout, "allocation above oracle: %.0f%%, spare-token tasks: %.0f%%, evictions: %d\n",
		100*out.AboveOracle, 100*out.SpareTaskFraction, out.Evictions)
	if record != nil && record.Counterfactual != nil {
		cf := record.Counterfactual
		fmt.Fprintf(stdout, "\ncounterfactual (constant-allocation hindsight over %v):\n", cf.Candidates)
		for _, o := range cf.Replays {
			fmt.Fprintf(stdout, "  alloc %3d: completed %v, met %v, %.0f token-seconds\n",
				o.Alloc, o.Completion.Round(time.Second), o.Met, o.AllocTokenSeconds)
		}
		fmt.Fprintf(stdout, "  deadline regret %.0f, token regret %.0f token-seconds", cf.DeadlineRegret, cf.TokenRegret)
		if cf.Attributed != "" {
			fmt.Fprintf(stdout, ", attributed to %s", cf.Attributed)
		}
		fmt.Fprintln(stdout)
		for _, s := range cf.Attribution {
			fmt.Fprintf(stdout, "    %-13s %4d ticks, %.0f token-seconds of gap\n", s.Mechanism, s.Ticks, s.GapTokenSeconds)
		}
	}
	if *flightOut != "" && record != nil {
		f, err := os.Create(*flightOut)
		if err != nil {
			return err
		}
		if err := record.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "flight record written to %s\n", *flightOut)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := out.Trace.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace written to %s\n", *traceOut)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := out.Trace.WriteTimelineCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "timeline written to %s\n", *csvPath)
	}
	return nil
}
