package main

import (
	"fmt"
	"strings"

	"github.com/jockeysim/jockey/internal/experiments"
	"github.com/jockeysim/jockey/internal/flight"
)

// paperOut collects one pass over the artifacts.
type paperOut struct {
	// stdout is exactly what `experiments -quick` prints for the artifacts
	// run; extra carries outputs the CLI writes to files (the fig3 DOT
	// sources). Both feed the digest.
	stdout, extra strings.Builder
	empty         int     // renders with no content
	dots          int     // fig3 DOT graphs
	jockeyMet     float64 // fig4/5 Jockey-policy met share
	tableUs       float64 // E1 mean table-controller decision cost, µs
	onlineUs      float64 // E1 mean online-controller decision cost, µs
}

func (o *paperOut) emit(content string) {
	if strings.TrimSpace(content) == "" {
		o.empty++
	}
	o.stdout.WriteString(content)
	o.stdout.WriteByte('\n')
}

// artifact is one cmd/experiments artifact call with its -quick arguments.
type artifact struct {
	name string
	run  func(env *experiments.Env, o *paperOut) error
}

// The -quick settings of cmd/experiments.
const (
	quickSeeds    = 1
	quickT1Runs   = 6
	quickFig8Runs = 1
)

// artifacts are the 18 calls `experiments -quick` makes, in its order.
var artifacts = []artifact{
	{"table1", func(env *experiments.Env, o *paperOut) error {
		t, err := experiments.RecurringVariance(env, experiments.Table1Config{RunsPerJob: quickT1Runs})
		return emitRender(o, t, err)
	}},
	{"fig1", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.Dependencies(env, 5000)
		return emitRender(o, f, err)
	}},
	{"table2", func(env *experiments.Env, o *paperOut) error {
		t, err := experiments.JobStatistics(env)
		return emitRender(o, t, err)
	}},
	{"fig3", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.StageGraphs(env)
		if err != nil {
			return err
		}
		o.emit(f.Render())
		for _, job := range experiments.DefaultJobs {
			if dot := f.DOT[job]; strings.HasPrefix(dot, "digraph") {
				o.dots++
				o.extra.WriteString(dot)
			}
		}
		return nil
	}},
	{"fig45", func(env *experiments.Env, o *paperOut) error {
		c, err := experiments.PolicyComparison(env, experiments.ComparisonConfig{SeedsPerCase: quickSeeds})
		if err != nil {
			return err
		}
		o.emit(c.RenderFig4())
		o.emit(c.RenderFig5())
		for _, s := range c.Summaries() {
			if s.Policy == experiments.PolicyJockey {
				o.jockeyMet = 1 - s.MissedFrac
			}
		}
		return nil
	}},
	{"fig6", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.Timelapses(env)
		return emitRender(o, f, err)
	}},
	{"table3", func(env *experiments.Env, o *paperOut) error {
		t, err := experiments.TrainingVsActual(env)
		return emitRender(o, t, err)
	}},
	{"fig7", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.DeadlineChanges(env, nil)
		return emitRender(o, f, err)
	}},
	{"fig8", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.PredictionAccuracy(env, nil, quickFig8Runs)
		return emitRender(o, f, err)
	}},
	{"fig9", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.IndicatorTraces(env)
		return emitRender(o, f, err)
	}},
	{"fig10", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.IndicatorComparison(env, nil)
		return emitRender(o, f, err)
	}},
	{"fig11", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.Sensitivity(env, nil, quickSeeds)
		return emitRender(o, f, err)
	}},
	{"fig12", func(env *experiments.Env, o *paperOut) error {
		s, err := experiments.SlackSweep(env, nil, quickSeeds)
		return emitRender(o, s, err)
	}},
	{"ext1", func(env *experiments.Env, o *paperOut) error {
		e, err := experiments.OnlineVsTable(env, nil, quickSeeds)
		if err != nil {
			return err
		}
		// The decision costs are wall-clock measurements: keep them as
		// per-layer metrics and zero them before the output is digested.
		var table, online float64
		for i := range e.Rows {
			table += e.Rows[i].TableDecisionUs
			online += e.Rows[i].OnlineDecision
			e.Rows[i].TableDecisionUs, e.Rows[i].OnlineDecision = 0, 0
		}
		if n := float64(len(e.Rows)); n > 0 {
			o.tableUs, o.onlineUs = table/n, online/n
		}
		o.emit(e.Render())
		return nil
	}},
	{"ext2", func(env *experiments.Env, o *paperOut) error {
		e, err := experiments.AdmissionControl(env, 8)
		return emitRender(o, e, err)
	}},
	{"robustness", func(env *experiments.Env, o *paperOut) error {
		r, err := experiments.RobustnessFlight(env, experiments.RobustnessConfig{
			Job: "B", SeedsPerCell: quickSeeds, Flight: flight.LevelNone,
		})
		return emitRender(o, r, err)
	}},
	{"fleet", func(env *experiments.Env, o *paperOut) error {
		f, err := experiments.FleetRobustness(env)
		return emitRender(o, f, err)
	}},
	{"fig13", func(env *experiments.Env, o *paperOut) error {
		s, err := experiments.HysteresisSweep(env, nil, quickSeeds)
		return emitRender(o, s, err)
	}},
}

func emitRender(o *paperOut, r interface{ Render() string }, err error) error {
	if err != nil {
		return err
	}
	o.emit(r.Render())
	return nil
}

// newPaperEnv is the environment of `experiments -seed N -parallel 1
// -parallelism 1`: every model build and grid point runs serially.
func newPaperEnv(seed uint64) *experiments.Env {
	env := experiments.NewEnv(seed)
	env.Parallelism = 1
	env.GridParallel = 1
	return env
}

// paper is the paper reproduction: every -quick artifact on one warm
// experiments.Env.
type paper struct {
	seed uint64
	env  *experiments.Env
	last *paperOut
}

func newPaper(seed uint64) workload { return &paper{seed: seed} }

// setup builds a fresh Env and every model the artifacts use: for each
// job, its ground truth, its training run, its runtime under each of the
// six indicators, and its deadlines. The calls go in dependency order, so
// each span's time is that layer's own work. Each job is one metered unit.
func (p *paper) setup(tr *tracer, m *meter) error {
	env := newPaperEnv(p.seed)
	for i, job := range experiments.DefaultJobs {
		if i > 0 {
			m.split()
		}
		sp := tr.begin("workload.ground")
		_, err := env.Ground(job)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("job %s: %w", job, err)
		}
		sp = tr.begin("cluster.train")
		_, err = env.Training(job)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("job %s: %w", job, err)
		}
		for _, ind := range experiments.AllIndicators {
			sp = tr.begin("model.build")
			_, err = env.Runtime(job, ind)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("job %s, indicator %s: %w", job, ind, err)
			}
		}
		sp = tr.begin("experiments.deadlines")
		_, _, err = env.Deadlines(job)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("job %s: %w", job, err)
		}
	}
	p.env = env
	return nil
}

func (p *paper) rep(tr *tracer, m *meter) error {
	out, err := runArtifacts(p.env, artifacts, tr, m)
	p.last = out
	return err
}

func (p *paper) output() string { return p.last.stdout.String() + p.last.extra.String() }

// runArtifacts runs the given artifacts in order, one span and one metered
// unit each.
func runArtifacts(env *experiments.Env, list []artifact, tr *tracer, m *meter) (*paperOut, error) {
	o := &paperOut{}
	for i, a := range list {
		if i > 0 {
			m.split()
		}
		sp := tr.begin("experiments." + a.name)
		err := a.run(env, o)
		tr.end(sp)
		if err != nil {
			return o, fmt.Errorf("%s: %w", a.name, err)
		}
	}
	return o, nil
}

func (p *paper) check() error {
	o := p.last
	if o.dots != len(experiments.DefaultJobs) {
		return fmt.Errorf("fig3 produced %d DOT graphs, want %d", o.dots, len(experiments.DefaultJobs))
	}
	if o.empty > 0 {
		return fmt.Errorf("%d artifact renders are empty", o.empty)
	}
	return nil
}

func (p *paper) metFrac() float64 { return p.last.jockeyMet }

func (p *paper) layers(r *report, tr *tracer) {
	r.set("workload.ground_s", medianSpan(tr, "setup", "workload.ground"))
	r.set("cluster.train_s", medianSpan(tr, "setup", "cluster.train"))
	r.set("model.build_s", medianSpan(tr, "setup", "model.build"))
	_, builds := tr.perRep("setup", "model.build")
	r.set("model.builds", median(builds))
	for _, a := range artifacts {
		r.set("experiments."+a.name+"_s", medianSpan(tr, "run", "experiments."+a.name))
	}
	r.set("control.table_decision_us", p.last.tableUs)
	r.set("control.online_decision_us", p.last.onlineUs)
}

// medianSpan is the median, over a phase's set-ups or repetitions, of the
// summed time of the spans called name.
func medianSpan(tr *tracer, phase, name string) float64 {
	secs, _ := tr.perRep(phase, name)
	return median(secs)
}
