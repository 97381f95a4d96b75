package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/trace"
)

// TimelapseCase is one of the three Fig. 6 scenarios.
type TimelapseCase struct {
	// Label matches the paper's sub-captions.
	Label string
	// Job and deadline of the run.
	Job      string
	Deadline time.Duration
	// InputScale provokes the scenario (2.0 = overloaded run of Fig. 6a,
	// 1.0 = slow-stage run, 0.75 = over-provisioned run of Fig. 6c).
	InputScale float64
	// Outcome of the run, including the full allocation timeline.
	Outcome Outcome
}

// Fig6 holds the three time-lapse runs.
type Fig6 struct {
	Cases []TimelapseCase
}

// Timelapses reproduces the three dynamic-adaptation examples of Fig. 6:
// (a) job F whose actual run needs about twice the training work — the
// policy notices the slow progress and adds resources early; (b) job E with
// a stage taking longer than usual; (c) job G finishing faster than
// expected — the policy releases resources as the deadline approaches.
func Timelapses(env *Env) (*Fig6, error) {
	shortF, _, err := env.Deadlines("F")
	if err != nil {
		return nil, err
	}
	shortE, _, err := env.Deadlines("E")
	if err != nil {
		return nil, err
	}
	_, longG, err := env.Deadlines("G")
	if err != nil {
		return nil, err
	}
	cases := []TimelapseCase{
		{Label: "(a) overloaded run, job F", Job: "F", Deadline: shortF, InputScale: 2.0},
		{Label: "(b) slow stage, job E", Job: "E", Deadline: shortE, InputScale: 1.25},
		{Label: "(c) over-provisioned, job G", Job: "G", Deadline: longG, InputScale: 0.75},
	}
	var tasks []func(x *Exec) (Outcome, error)
	for i, c := range cases {
		tasks = append(tasks, func(x *Exec) (Outcome, error) {
			return env.RunExec(x, SLORun{
				Job:        c.Job,
				Deadline:   c.Deadline,
				Policy:     PolicyJockey,
				Seed:       uint64(100 + i),
				InputScale: c.InputScale,
			})
		})
	}
	outcomes, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	for i := range cases {
		cases[i].Outcome = outcomes[i]
	}
	return &Fig6{Cases: cases}, nil
}

// Timeline returns the allocation timeline of case i.
func (f *Fig6) Timeline(i int) []trace.AllocPoint {
	return f.Cases[i].Outcome.Trace.Timeline
}

// Render prints each scenario's timeline: the four series of Fig. 6 (raw
// allocation, granted allocation, running vertices, oracle allocation).
func (f *Fig6) Render() string {
	out := ""
	for _, c := range f.Cases {
		var rows [][]string
		for _, p := range c.Outcome.Trace.Timeline {
			rows = append(rows, []string{
				fmt.Sprintf("%.0f", p.T.Minutes()),
				fmt.Sprint(p.Raw),
				fmt.Sprint(p.Granted),
				fmt.Sprint(p.Running),
				fmt.Sprint(p.Oracle),
				fmt.Sprintf("%.0f%%", 100*p.Progress),
			})
		}
		title := fmt.Sprintf("Figure 6 %s: deadline %v, input ×%.2f — finished %v (%.0f%% of deadline, met=%v)",
			c.Label, c.Deadline, c.InputScale, c.Outcome.Completion.Round(time.Second),
			100*c.Outcome.RelCompletion, c.Outcome.Met)
		out += renderTable(title,
			[]string{"t [min]", "raw", "granted", "running", "oracle", "progress"},
			rows) + "\n"
	}
	return out
}
