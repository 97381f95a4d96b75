// Package progress implements the job progress indicators of §4.2 and §5.4
// of the paper. An indicator maps the per-stage fractions of completed tasks
// (f_s) to a scalar in [0, 1] that the control loop uses to index the
// precomputed C(p, a) remaining-time distributions.
//
// Six indicators are provided, matching the paper's evaluation:
//
//	totalworkWithQ  Σ_s f_s (Q_s + T_s) / Σ_s (Q_s + T_s)   (Jockey's default)
//	totalwork       Σ_s f_s T_s / Σ_s T_s
//	vertexfrac      Σ_s f_s N_s / Σ_s N_s
//	cp              1 − S_t / S_0, with S_t the remaining critical path
//	minstage        min over unfinished stages of tb_s + f_s (te_s − tb_s)
//	minstage-inf    minstage with spans from an unconstrained simulation
package progress

import (
	"time"

	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/trace"
)

// Indicator estimates job progress from per-stage completion fractions.
type Indicator interface {
	// Name identifies the indicator in reports ("totalworkWithQ", ...).
	Name() string
	// Progress returns the indicator value in [0, 1] given f_s, the
	// fraction of completed tasks per stage (parallel to the plan's
	// stages).
	Progress(fs []float64) float64
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// weighted is the shared shape of totalworkWithQ, totalwork and vertexfrac:
// a completion fraction weighted by per-stage constants.
type weighted struct {
	name    string
	weights []float64
	total   float64
}

func (w *weighted) Name() string { return w.name }

func (w *weighted) Progress(fs []float64) float64 {
	if w.total <= 0 {
		return 1
	}
	var sum float64
	for s, f := range fs {
		sum += f * w.weights[s]
	}
	return clamp01(sum / w.total)
}

func newWeighted(name string, weights []float64) *weighted {
	var total float64
	for _, v := range weights {
		total += v
	}
	return &weighted{name: name, weights: weights, total: total}
}

// NewTotalWorkWithQ builds the paper's default indicator: progress is the
// fraction of total task execution-plus-queueing time that has completed.
func NewTotalWorkWithQ(p *profile.Profile) Indicator {
	weights := make([]float64, len(p.Stages))
	for s, sp := range p.Stages {
		weights[s] = (sp.TotalWork + sp.TotalQueue).Seconds()
	}
	return newWeighted("totalworkWithQ", weights)
}

// NewTotalWork builds the totalwork indicator (execution time only).
func NewTotalWork(p *profile.Profile) Indicator {
	weights := make([]float64, len(p.Stages))
	for s, sp := range p.Stages {
		weights[s] = sp.TotalWork.Seconds()
	}
	return newWeighted("totalwork", weights)
}

// NewVertexFrac builds the vertexfrac indicator: the fraction of vertices
// that have completed (the ParaTimer-style indicator the paper compares
// against).
func NewVertexFrac(p *profile.Profile) Indicator {
	weights := make([]float64, len(p.Stages))
	for s := range p.Stages {
		weights[s] = float64(p.Job.Stages[s].Tasks)
	}
	return newWeighted("vertexfrac", weights)
}

// cp is the critical-path indicator: 1 − S_t/S_0 where
// S_t = max over stages with f_s < 1 of (1 − f_s)·l_s + L_s.
type cp struct {
	ls []time.Duration // longest task per stage
	Ls []time.Duration // longest path after each stage
	s0 float64         // critical path at f = 0, seconds
}

// NewCP builds the critical-path indicator from the profile's l_s and L_s.
func NewCP(p *profile.Profile) Indicator {
	c := &cp{Ls: p.LongestPathAfter()}
	c.ls = make([]time.Duration, len(p.Stages))
	for s, sp := range p.Stages {
		c.ls[s] = sp.LongestTask
	}
	c.s0 = remainingCP(c.ls, c.Ls, nil).Seconds()
	return c
}

func (c *cp) Name() string { return "cp" }

func (c *cp) Progress(fs []float64) float64 {
	if c.s0 <= 0 {
		return 1
	}
	st := remainingCP(c.ls, c.Ls, fs).Seconds()
	return clamp01(1 - st/c.s0)
}

// remainingCP computes S_t = max over unfinished stages of (1−f_s)l_s + L_s.
// A nil fs means "nothing has run" (f_s = 0 everywhere).
func remainingCP(ls, Ls []time.Duration, fs []float64) time.Duration {
	var best time.Duration
	for s := range ls {
		f := 0.0
		if fs != nil {
			f = fs[s]
		}
		if f >= 1 {
			continue
		}
		v := time.Duration(float64(ls[s])*(1-f)) + Ls[s]
		if v > best {
			best = v
		}
	}
	return best
}

// CriticalPath is a precomputed S_t evaluator over a fixed profile. Building
// it hoists the per-stage l_s and L_s vectors out of the query path, so
// Remaining is allocation-free — callers that evaluate S_t once per control
// tick (the Amdahl predictor) stay off the allocator.
type CriticalPath struct {
	ls []time.Duration // longest task per stage
	Ls []time.Duration // longest path after each stage
}

// NewCriticalPath precomputes the critical-path vectors from a profile.
func NewCriticalPath(p *profile.Profile) CriticalPath {
	c := CriticalPath{Ls: p.LongestPathAfter()}
	c.ls = make([]time.Duration, len(p.Stages))
	for s, sp := range p.Stages {
		c.ls[s] = sp.LongestTask
	}
	return c
}

// Remaining returns S_t for the given per-stage completed fractions (nil
// means nothing has run).
func (c CriticalPath) Remaining(fs []float64) time.Duration {
	return remainingCP(c.ls, c.Ls, fs)
}

// Span is the normalized [begin, end] interval of one stage's activity
// within a reference run, used by the minstage indicators (the paper's tb_s
// and te_s).
type Span struct {
	Begin, End float64
}

// SpansFromTrace extracts normalized per-stage spans from a recorded run.
// Stages absent from the trace get the full [0, 1] span, which makes the
// minstage indicators conservative about them.
func SpansFromTrace(tr *trace.JobTrace, numStages int) []Span {
	spans := make([]Span, numStages)
	total := tr.Completion
	for s := 0; s < numStages; s++ {
		b, e, ok := tr.StageSpan(s)
		if !ok || total <= 0 {
			spans[s] = Span{0, 1}
			continue
		}
		spans[s] = Span{
			Begin: clamp01(b.Seconds() / total.Seconds()),
			End:   clamp01(e.Seconds() / total.Seconds()),
		}
	}
	return spans
}

// FracDoneAt reads a job state back from a recorded run: per stage, the
// fraction f_s of its tasks whose successful attempt ended at or before at
// (an offset from job start, like the trace's times). A run's trace holds
// every completion, so this is the FracDone an observer sampling the run at
// that time saw, without a hook in the run itself.
func FracDoneAt(tr *trace.JobTrace, p *profile.Profile, at time.Duration) []float64 {
	fs := make([]float64, p.Job.NumStages())
	for _, e := range tr.Events {
		if !e.Failed && e.Ended <= at {
			fs[e.Stage]++
		}
	}
	for s := range fs {
		fs[s] /= float64(p.Job.Stages[s].Tasks)
	}
	return fs
}

type minstage struct {
	name  string
	spans []Span
}

// NewMinStage builds the minstage indicator from spans observed in a
// previous run of the job.
func NewMinStage(spans []Span) Indicator {
	return &minstage{name: "minstage", spans: spans}
}

// NewMinStageInf builds the minstage-inf indicator; the caller supplies
// spans from an unconstrained (infinite-resource) simulation, e.g. via
// sim.RunInfinite and SpansFromTrace.
func NewMinStageInf(spans []Span) Indicator {
	return &minstage{name: "minstage-inf", spans: spans}
}

func (m *minstage) Name() string { return m.name }

func (m *minstage) Progress(fs []float64) float64 {
	best := 1.0
	unfinished := false
	for s, f := range fs {
		if f >= 1 {
			continue
		}
		unfinished = true
		sp := m.spans[s]
		v := sp.Begin + f*(sp.End-sp.Begin)
		if v < best {
			best = v
		}
	}
	if !unfinished {
		return 1
	}
	return clamp01(best)
}
