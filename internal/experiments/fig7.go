package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/stats"
)

// DeadlineChangeKind names the three Fig. 7 manipulations.
type DeadlineChangeKind string

// Ten minutes into the run, the deadline is halved, doubled or tripled
// (§5.2 "Adapting to changes in deadlines").
const (
	HalveDeadline  DeadlineChangeKind = "halve"
	DoubleDeadline DeadlineChangeKind = "double"
	TripleDeadline DeadlineChangeKind = "triple"
)

// Fig7Run is one deadline-change run.
type Fig7Run struct {
	Job     string
	Kind    DeadlineChangeKind
	Outcome Outcome
	// AllocBefore and AllocAfter are the mean granted allocations before
	// and after the change.
	AllocBefore, AllocAfter float64
}

// Fig7 aggregates the deadline-change experiment.
type Fig7 struct {
	Runs []Fig7Run
}

// DeadlineChanges runs each job once per manipulation: ten minutes after
// start, the deadline is halved, doubled, or tripled; Jockey must meet the
// new deadline, raising the allocation for cuts and releasing resources for
// extensions. The (job, manipulation) runs execute on runGrid.
func DeadlineChanges(env *Env, jobs []string) (*Fig7, error) {
	if len(jobs) == 0 {
		jobs = DefaultJobs
	}
	const changeAt = 10 * time.Minute
	kinds := []DeadlineChangeKind{HalveDeadline, DoubleDeadline, TripleDeadline}
	var tasks []func(x *Exec) (Outcome, error)
	for _, job := range jobs {
		for _, kind := range kinds {
			tasks = append(tasks, func(x *Exec) (Outcome, error) {
				_, long, err := env.Deadlines(job)
				if err != nil {
					return Outcome{}, err
				}
				newDeadline := map[DeadlineChangeKind]time.Duration{
					HalveDeadline: long / 2, DoubleDeadline: 2 * long, TripleDeadline: 3 * long,
				}[kind]
				return env.RunExec(x, SLORun{
					Job:      job,
					Deadline: long,
					Policy:   PolicyJockey,
					// Pin the input size: this experiment isolates deadline
					// adaptation from input drift.
					InputScale: 1.0,
					Seed:       stats.DeriveSeed(env.Seed, "fig7", job, string(kind)),
					DeadlineChanges: []cluster.DeadlineChange{
						{At: changeAt, Deadline: newDeadline},
					},
				})
			})
		}
	}
	outcomes, err := runGrid(env, tasks)
	if err != nil {
		return nil, err
	}
	f := &Fig7{}
	for i, o := range outcomes {
		var before, after []float64
		for _, p := range o.Trace.Timeline {
			if p.T < changeAt {
				before = append(before, float64(p.Granted))
			} else {
				after = append(after, float64(p.Granted))
			}
		}
		f.Runs = append(f.Runs, Fig7Run{
			Job:         jobs[i/len(kinds)],
			Kind:        kinds[i%len(kinds)],
			Outcome:     o,
			AllocBefore: stats.Mean(before),
			AllocAfter:  stats.Mean(after),
		})
	}
	return f, nil
}

// Fig7Summary aggregates the runs of one manipulation.
type Fig7Summary struct {
	Runs, Met   int
	AllocChange float64 // mean relative change of granted allocation
}

// Summary aggregates per manipulation: met count and average allocation
// change (positive = increased).
func (f *Fig7) Summary() map[DeadlineChangeKind]Fig7Summary {
	out := map[DeadlineChangeKind]Fig7Summary{}
	counts := map[DeadlineChangeKind]int{}
	for _, r := range f.Runs {
		s := out[r.Kind]
		s.Runs++
		if r.Outcome.Met {
			s.Met++
		}
		if r.AllocBefore > 0 {
			s.AllocChange += r.AllocAfter/r.AllocBefore - 1
			counts[r.Kind]++
		}
		out[r.Kind] = s
	}
	for k, s := range out {
		if counts[k] > 0 {
			s.AllocChange /= float64(counts[k])
			out[k] = s
		}
	}
	return out
}

// Render prints per-run and aggregate results.
func (f *Fig7) Render() string {
	var rows [][]string
	for _, r := range f.Runs {
		rows = append(rows, []string{
			r.Job,
			string(r.Kind),
			fmt.Sprintf("%v", r.Outcome.Deadline),
			fmt.Sprintf("%v", r.Outcome.Completion.Round(time.Second)),
			fmt.Sprint(r.Outcome.Met),
			fmt.Sprintf("%.1f", r.AllocBefore),
			fmt.Sprintf("%.1f", r.AllocAfter),
		})
	}
	out := renderTable(
		"Figure 7: adapting to deadline changes 10 minutes into the run\n"+
			"(paper: every new deadline met; halving raised allocation by 148% on average;\n"+
			" doubling/tripling released 63%/83% of resources)",
		[]string{"job", "change", "new deadline", "completion", "met", "alloc before", "alloc after"},
		rows)
	sum := f.Summary()
	var srows [][]string
	for _, k := range []DeadlineChangeKind{HalveDeadline, DoubleDeadline, TripleDeadline} {
		s := sum[k]
		srows = append(srows, []string{
			string(k), fmt.Sprint(s.Runs), fmt.Sprint(s.Met), pct(s.AllocChange),
		})
	}
	out += "\n" + renderTable("Summary", []string{"change", "runs", "met", "mean alloc change"}, srows)
	return out
}
