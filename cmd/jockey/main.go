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
//	       [-guard] [-drift-factor 2.0 -drift-at 6m]
//	       [-flight-level none|decisions|counterfactual] [-flight record.json]
//
// Policies: jockey, jockey-no-adapt, jockey-no-sim, max-allocation.
// With -deadline 0 the tool picks the job's standard short deadline.
// -guard wraps the controller in the model-staleness guard rails (deviation
// detection, online re-profiling, fallback chain); -drift-factor/-drift-at
// inject an all-stage service-time drift to watch the guard react.
// -flight-level turns on the decision flight recorder (per-tick mechanisms
// and top-K candidates; "counterfactual" adds hindsight constant-allocation
// replays and a regret report); -flight writes the record as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/core"
	"github.com/jockeysim/jockey/internal/experiments"
	"github.com/jockeysim/jockey/internal/flight"
	"github.com/jockeysim/jockey/internal/utility"
)

func main() {
	var (
		job       = flag.String("job", "F", "evaluation job name (A..G)")
		deadline  = flag.Duration("deadline", 0, "SLO deadline (0 = the job's standard short deadline)")
		policy    = flag.String("policy", "jockey", "allocation policy: jockey | jockey-no-adapt | jockey-no-sim | max-allocation")
		seed      = flag.Uint64("seed", 1, "run seed")
		slack     = flag.Float64("slack", 0, "slack factor (0 = default 1.2)")
		hyst      = flag.Float64("hysteresis", 0, "hysteresis α (0 = default 0.2)")
		deadzone  = flag.Duration("deadzone", 0, "dead zone (0 = default 3m, negative disables)")
		period    = flag.Duration("period", 0, "control period (0 = default 1m)")
		indicator = flag.String("indicator", "", "progress indicator (default totalworkWithQ)")
		scale     = flag.Float64("scale", 0, "input-size scale factor (0 = per-run jitter)")
		csvPath   = flag.String("csv", "", "write the allocation timeline as CSV to this file")
		online    = flag.Bool("online", false, "drive the controller with online forward simulation instead of the C(p,a) table (policy jockey only, not with -guard)")
		utilSpec  = flag.String("utility", "", `custom utility curve, e.g. "deadline 60m", "soft 1h grace 20m" or "0:1, 60m:1, 70m:-1"`)
		profOut   = flag.String("save-profile", "", "write the job's training profile as JSON to this file")
		traceOut  = flag.String("save-trace", "", "write the run's full task trace as JSON to this file")
		par       = flag.Int("parallelism", 0, "worker pool size for offline model simulations (0 = GOMAXPROCS); results are identical at any value")
		guard     = flag.Bool("guard", false, "wrap the controller in the model-staleness guard rails (policy jockey only)")
		driftFac  = flag.Float64("drift-factor", 0, "inject an all-stage service-time drift of this factor (0 = none)")
		driftAt   = flag.Duration("drift-at", 0, "when the injected drift starts, relative to job start")
		flightLvl = flag.String("flight-level", "none", "decision flight recorder: none, decisions or counterfactual")
		flightOut = flag.String("flight", "", "write the flight record as JSON to this file (implies -flight-level decisions)")
	)
	flag.Parse()
	flightLevel, err := flight.ParseLevel(*flightLvl)
	if err != nil {
		fatal(err)
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
			fatal(err)
		}
		d = short
		fmt.Fprintf(os.Stderr, "using the job's standard short deadline: %v\n", d)
	}
	var u utility.Fn
	if *utilSpec != "" {
		var err error
		if u, err = utility.Parse(*utilSpec); err != nil {
			fatal(err)
		}
	}
	if *profOut != "" {
		prof, err := env.Training(*job)
		if err != nil {
			fatal(err)
		}
		data, err := json.MarshalIndent(prof, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*profOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "training profile written to %s\n", *profOut)
	}
	var drifts []cluster.StageDrift
	if *driftFac > 0 {
		drifts = []cluster.StageDrift{{At: *driftAt, Stage: -1, Factor: *driftFac}}
	}
	out, record, err := env.RunFlight(experiments.NewExec(), experiments.SLORun{
		Job:        *job,
		Deadline:   d,
		Policy:     experiments.PolicyKind(*policy),
		Guarded:    *guard,
		Seed:       *seed,
		InputScale: *scale,
		Utility:    u,
		Drifts:     drifts,
		Knobs: experiments.Knobs{
			Slack:           *slack,
			Hysteresis:      *hyst,
			DeadZone:        *deadzone,
			Period:          *period,
			Indicator:       core.IndicatorName(*indicator),
			OnlinePredictor: *online,
		},
	}, experiments.FlightConfig{Level: flightLevel})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("job %s under %s, deadline %v\n\n", *job, *policy, d)
	if *guard {
		fmt.Println("  t[min]  raw  granted  running  oracle  progress  predicted[min]  dev   mode")
		for _, p := range out.Trace.Timeline {
			fmt.Printf("  %6.1f  %3d  %7d  %7d  %6d  %7.0f%%  %14.1f  %4.2f  %s\n",
				p.T.Minutes(), p.Raw, p.Granted, p.Running, p.Oracle,
				100*p.Progress, p.Predicted.Minutes(), p.Deviation, p.Mode)
		}
	} else {
		fmt.Println("  t[min]  raw  granted  running  oracle  progress  predicted[min]")
		for _, p := range out.Trace.Timeline {
			fmt.Printf("  %6.1f  %3d  %7d  %7d  %6d  %7.0f%%  %14.1f\n",
				p.T.Minutes(), p.Raw, p.Granted, p.Running, p.Oracle,
				100*p.Progress, p.Predicted.Minutes())
		}
	}
	for _, ev := range out.GuardEvents {
		fmt.Printf("guard: t=%v %s %s -> %s (deviation %.2f, live samples %d)\n",
			ev.At, ev.Kind, ev.From, ev.To, ev.Deviation, ev.LiveSamples)
	}
	fmt.Printf("\ncompleted in %v — %.0f%% of the deadline — SLO met: %v\n",
		out.Completion.Round(time.Second), 100*out.RelCompletion, out.Met)
	fmt.Printf("allocation above oracle: %.0f%%, spare-token tasks: %.0f%%, evictions: %d\n",
		100*out.AboveOracle, 100*out.SpareTaskFraction, out.Evictions)
	if record != nil && record.Counterfactual != nil {
		cf := record.Counterfactual
		fmt.Printf("\ncounterfactual (constant-allocation hindsight over %v):\n", cf.Candidates)
		for _, o := range cf.Replays {
			fmt.Printf("  alloc %3d: completed %v, met %v, %.0f token-seconds\n",
				o.Alloc, o.Completion.Round(time.Second), o.Met, o.AllocTokenSeconds)
		}
		fmt.Printf("  deadline regret %.0f, token regret %.0f token-seconds", cf.DeadlineRegret, cf.TokenRegret)
		if cf.Attributed != "" {
			fmt.Printf(", attributed to %s", cf.Attributed)
		}
		fmt.Println()
		for _, s := range cf.Attribution {
			fmt.Printf("    %-13s %4d ticks, %.0f token-seconds of gap\n", s.Mechanism, s.Ticks, s.GapTokenSeconds)
		}
	}
	if *flightOut != "" && record != nil {
		f, err := os.Create(*flightOut)
		if err != nil {
			fatal(err)
		}
		if err := record.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "flight record written to %s\n", *flightOut)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := out.Trace.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := out.Trace.WriteTimelineCSV(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "timeline written to %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jockey:", err)
	os.Exit(1)
}
