package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/workload"
)

// AdmissionOutcome summarizes one mode of the admission-control experiment.
type AdmissionOutcome struct {
	Mode     string // "admission-control" or "admit-everything"
	Offered  int
	Admitted int
	Met      int // deadlines met among admitted jobs
}

// ExtensionE2 is the admission-control experiment (§1: "Jockey's job model
// can be used to check whether a newly submitted job would fit in the
// cluster — that is, that all previously accepted SLO jobs would still be
// able to meet their deadlines").
type ExtensionE2 struct {
	Outcomes []AdmissionOutcome
	// Rejected lists the jobs the fit check turned away.
	Rejected []string
}

// AdmissionControl offers a stream of SLO jobs with tight deadlines to a
// shared cluster whose SLO budget is limited, once gated by the fit check
// and once admitting everything. The fit check admits a job only if its
// model-estimated required allocation fits in the guaranteed tokens not yet
// committed to earlier admissions. With the check, every admitted job
// should meet its deadline; without it, the over-committed guarantees
// collide and some jobs miss.
func AdmissionControl(env *Env, offers int) (*ExtensionE2, error) {
	if offers <= 0 {
		offers = 8
	}
	type offer struct {
		job      string
		deadline time.Duration
		start    time.Duration
	}
	jobs := []string{"B", "C", "E", "F"}
	rng := stats.NewRNG(stats.DeriveSeed(env.Seed, "ext2"))
	var stream []offer
	for i := 0; i < offers; i++ {
		name := jobs[rng.IntN(len(jobs))]
		short, _, err := env.Deadlines(name)
		if err != nil {
			return nil, err
		}
		stream = append(stream, offer{
			job:      name,
			deadline: time.Duration(float64(short) * (0.9 + 0.3*rng.Float64())),
			start:    time.Duration(i) * 4 * time.Minute,
		})
	}

	out := &ExtensionE2{}
	for _, gate := range []bool{true, false} {
		mode := "admit-everything"
		if gate {
			mode = "admission-control"
		}
		c, err := cluster.New(cluster.Config{
			Machines:        env.Machines,
			SlotsPerMachine: env.Slots,
			MachineMTBF:     90 * time.Minute,
			Seed:            stats.DeriveSeed(env.Seed, "ext2-cluster", mode),
		})
		if err != nil {
			return nil, err
		}
		bg := env.Background
		bg.Seed = stats.DeriveSeed(env.Seed, "ext2-bg", mode)
		if _, err := workload.SubmitBackground(c, bg); err != nil {
			return nil, err
		}
		committed := 0
		o := AdmissionOutcome{Mode: mode, Offered: len(stream)}
		var handles []*cluster.Handle
		for i, of := range stream {
			jk, err := env.Runtime(of.job, "")
			if err != nil {
				return nil, err
			}
			if gate {
				need, ok := jk.RequiredAllocation(of.deadline)
				if !ok || need > env.MaxTokens-committed {
					out.Rejected = append(out.Rejected, fmt.Sprintf("%s-%d", of.job, i))
					continue
				}
				committed += need
			}
			pol, err := jk.Policy(of.deadline)
			if err != nil {
				return nil, err
			}
			h, err := c.Submit(cluster.JobConfig{
				Profile:  mustGround(env, of.job),
				Policy:   pol,
				Deadline: of.deadline,
				Start:    of.start,
				Tracked:  true,
			})
			if err != nil {
				return nil, err
			}
			handles = append(handles, h)
			o.Admitted++
		}
		if err := c.Run(); err != nil {
			return nil, err
		}
		for _, h := range handles {
			if h.Result().Met {
				o.Met++
			}
		}
		out.Outcomes = append(out.Outcomes, o)
	}
	return out, nil
}

func mustGround(env *Env, job string) *profile.Profile {
	p, err := env.Ground(job)
	// Jobs come from the fixed Table 2 set; Ground cannot fail here.
	invariant.NoErr(err, "experiments: Ground(%q) on the fixed Table 2 set", job)
	return p
}

// Render prints the E2 comparison.
func (e *ExtensionE2) Render() string {
	var rows [][]string
	for _, o := range e.Outcomes {
		metFrac := "n/a"
		if o.Admitted > 0 {
			metFrac = pct(float64(o.Met) / float64(o.Admitted))
		}
		rows = append(rows, []string{
			o.Mode,
			fmt.Sprint(o.Offered),
			fmt.Sprint(o.Admitted),
			fmt.Sprintf("%d (%s)", o.Met, metFrac),
		})
	}
	title := "Extension E2: admission control over a stream of SLO jobs (§1's fit check)\n" +
		fmt.Sprintf("rejected by the arbiter: %v", e.Rejected)
	return renderTable(title,
		[]string{"mode", "offered", "admitted", "deadlines met"}, rows)
}
