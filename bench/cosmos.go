package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// cosmos is the cosmos-scale cluster replay of internal/cluster's
// largecluster benchmark, rebuilt from public calls: 10k machines x 10
// slots, two large background jobs and one deadline job, all tracked
// without traces on a reused engine. It exercises only the engine and its
// event queue — many tasks, few jobs — and none of the model, control or
// fleet layers.
type cosmos struct {
	cfg         cluster.Config
	bg, bg2, fg *profile.Profile
	engine      *cluster.Engine
	results     [3]cluster.Result
	utilization float64
	attempts    int // task attempts of the last traced repetition
}

func newCosmos(seed uint64) workload {
	return &cosmos{cfg: cluster.Config{
		Machines:        10000,
		SlotsPerMachine: 10,
		MachineMTBF:     2000 * time.Hour,
		MachineRecovery: stats.Point{V: 2 * time.Minute},
		Seed:            seed,
	}}
}

// setup builds the three job profiles and a fresh engine, then runs one
// cold replay that sizes the engine's arenas.
func (c *cosmos) setup(tr *tracer, m *meter) error {
	sp := tr.begin("workload.ground")
	err := c.buildProfiles()
	tr.end(sp)
	if err != nil {
		return err
	}
	c.engine = cluster.NewEngine()
	return c.rep(tr, m)
}

func (c *cosmos) buildProfiles() error {
	bgJob, err := dag.NewBuilder("lc-bg").Stage("work", 120000).Build()
	if err != nil {
		return err
	}
	if c.bg, err = profile.New(bgJob, []profile.StageProfile{{
		Exec:        stats.LognormalFromMedian(40*time.Second, 2*time.Minute),
		Queue:       stats.Exponential{MeanValue: time.Second},
		FailureProb: 0.01,
	}}); err != nil {
		return err
	}
	bg2Job, err := dag.NewBuilder("lc-bg2").Stage("work", 60000).Build()
	if err != nil {
		return err
	}
	if c.bg2, err = profile.New(bg2Job, []profile.StageProfile{{
		Exec: stats.LognormalFromMedian(time.Minute, 3*time.Minute),
	}}); err != nil {
		return err
	}
	fgJob, err := dag.NewBuilder("lc-fg").
		Stage("m", 20000).
		Stage("r", 4000).
		Edge("m", "r", dag.AllToAll).
		Build()
	if err != nil {
		return err
	}
	c.fg, err = profile.New(fgJob, []profile.StageProfile{
		{Exec: stats.LognormalFromMedian(30*time.Second, 90*time.Second),
			Queue: stats.Exponential{MeanValue: time.Second}},
		{Exec: stats.LognormalFromMedian(time.Minute, 3*time.Minute)},
	})
	return err
}

func (c *cosmos) rep(tr *tracer, _ *meter) error {
	sp := tr.begin("cluster.reset")
	cl, err := c.engine.Reset(c.cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	var onTask func(trace.TaskEvent)
	if tr != nil {
		c.attempts = 0
		onTask = func(trace.TaskEvent) { c.attempts++ }
	}
	jobs := []cluster.JobConfig{
		{Profile: c.bg, Guarantee: 50000},
		{Profile: c.bg2, Guarantee: 25000, Weight: 2, Start: 2 * time.Minute},
		{Profile: c.fg, Guarantee: 20000, Deadline: 4 * time.Hour, Start: time.Minute},
	}
	var handles [3]*cluster.Handle
	for i := range jobs {
		jobs[i].Tracked, jobs[i].NoTrace, jobs[i].OnTaskEvent = true, true, onTask
		sp := tr.begin("cluster.submit")
		handles[i], err = cl.Submit(jobs[i])
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp = tr.begin("cluster.run")
	err = cl.Run()
	tr.end(sp)
	if err != nil {
		return err
	}
	for i, h := range handles {
		if !h.Done() {
			return fmt.Errorf("job %s did not complete", h.Name())
		}
		c.results[i] = h.Result()
	}
	c.utilization = cl.Utilization()
	return nil
}

// output is the three job results (which carry no traces).
func (c *cosmos) output() string {
	var b strings.Builder
	for _, r := range c.results {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return b.String()
}

func (c *cosmos) check() error {
	for _, r := range c.results {
		if r.Completion <= 0 || r.Trace != nil {
			return fmt.Errorf("job %s: completion %v, trace kept %t", r.Name, r.Completion, r.Trace != nil)
		}
	}
	return nil
}

// metFrac is the deadline job's outcome.
func (c *cosmos) metFrac() float64 {
	if c.results[2].Met {
		return 1
	}
	return 0
}

func (c *cosmos) layers(r *report, tr *tracer) {
	r.set("workload.ground_s", medianSpan(tr, "setup", "workload.ground"))
	r.set("cluster.reset_s", medianSpan(tr, "run", "cluster.reset"))
	r.set("cluster.submit_s", medianSpan(tr, "run", "cluster.submit"))
	run := medianSpan(tr, "run", "cluster.run")
	r.set("cluster.run_s", run)
	r.set("cluster.task_attempts", float64(c.attempts))
	if run > 0 {
		r.set("cluster.attempts_per_s", float64(c.attempts)/run)
	}
	evictions := 0
	for _, res := range c.results {
		evictions += res.Evictions
	}
	r.set("cluster.evictions", float64(evictions))
	r.set("cluster.utilization", c.utilization)
}
