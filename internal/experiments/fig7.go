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
// extensions.
func DeadlineChanges(env *Env, jobs []string) (*Fig7, error) {
	if len(jobs) == 0 {
		jobs = DefaultJobs
	}
	f := &Fig7{}
	for _, job := range jobs {
		_, long, err := env.Deadlines(job)
		if err != nil {
			return nil, err
		}
		for _, kind := range []DeadlineChangeKind{HalveDeadline, DoubleDeadline, TripleDeadline} {
			var newDeadline time.Duration
			switch kind {
			case HalveDeadline:
				newDeadline = long / 2
			case DoubleDeadline:
				newDeadline = 2 * long
			case TripleDeadline:
				newDeadline = 3 * long
			}
			changeAt := 10 * time.Minute
			o, err := env.Run(SLORun{
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
			if err != nil {
				return nil, err
			}
			var before, after []float64
			for _, p := range o.Trace.Timeline {
				if p.T < changeAt {
					before = append(before, float64(p.Granted))
				} else {
					after = append(after, float64(p.Granted))
				}
			}
			f.Runs = append(f.Runs, Fig7Run{
				Job:         job,
				Kind:        kind,
				Outcome:     o,
				AllocBefore: stats.Mean(before),
				AllocAfter:  stats.Mean(after),
			})
		}
	}
	return f, nil
}

// Summary aggregates per manipulation: met count and average allocation
// change (positive = increased).
func (f *Fig7) Summary() map[DeadlineChangeKind](struct {
	Runs, Met   int
	AllocChange float64 // mean relative change of granted allocation
}) {
	type agg struct {
		Runs, Met   int
		AllocChange float64
	}
	sums := map[DeadlineChangeKind]*agg{}
	counts := map[DeadlineChangeKind]int{}
	for _, r := range f.Runs {
		a := sums[r.Kind]
		if a == nil {
			a = &agg{}
			sums[r.Kind] = a
		}
		a.Runs++
		if r.Outcome.Met {
			a.Met++
		}
		if r.AllocBefore > 0 {
			a.AllocChange += r.AllocAfter/r.AllocBefore - 1
			counts[r.Kind]++
		}
	}
	out := map[DeadlineChangeKind](struct {
		Runs, Met   int
		AllocChange float64
	}){}
	for k, a := range sums {
		change := 0.0
		if counts[k] > 0 {
			change = a.AllocChange / float64(counts[k])
		}
		out[k] = struct {
			Runs, Met   int
			AllocChange float64
		}{a.Runs, a.Met, change}
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
