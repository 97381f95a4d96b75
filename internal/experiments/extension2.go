package experiments

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
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
		fits     bool // admitted by the fit check
	}
	jobs := []string{"B", "C", "E", "F"}
	rng := stats.NewRNG(stats.DeriveSeed(env.Seed, "ext2"))
	out := &ExtensionE2{}
	var stream []offer
	committed := 0
	for i := 0; i < offers; i++ {
		name := jobs[rng.IntN(len(jobs))]
		short, _, err := env.Deadlines(name)
		if err != nil {
			return nil, err
		}
		of := offer{
			job:      name,
			deadline: time.Duration(float64(short) * (0.9 + 0.3*rng.Float64())),
			start:    time.Duration(i) * 4 * time.Minute,
		}
		// The fit check reads only the model, so it decides before either
		// replay runs.
		jk, err := env.Runtime(name, "")
		if err != nil {
			return nil, err
		}
		if need, ok := jk.RequiredAllocation(of.deadline); ok && need <= maxTokens-committed {
			committed += need
			of.fits = true
		} else {
			out.Rejected = append(out.Rejected, fmt.Sprintf("%s-%d", name, i))
		}
		stream = append(stream, of)
	}

	// Both modes replay the same stream, each on its own seeds.
	var tasks []func(x *Exec) (AdmissionOutcome, error)
	for _, mode := range []string{"admission-control", "admit-everything"} {
		tasks = append(tasks, func(x *Exec) (AdmissionOutcome, error) {
			bg := background(stats.DeriveSeed(env.Seed, "ext2-bg", mode), 1)
			c, err := x.reset(cluster.Config{Seed: stats.DeriveSeed(env.Seed, "ext2-cluster", mode)}, bg)
			if err != nil {
				return AdmissionOutcome{}, err
			}
			var handles []*cluster.Handle
			for _, of := range stream {
				if mode == "admission-control" && !of.fits {
					continue
				}
				jk, err := env.Runtime(of.job, "")
				if err != nil {
					return AdmissionOutcome{}, err
				}
				pol, err := jk.Policy(of.deadline)
				if err != nil {
					return AdmissionOutcome{}, err
				}
				h, err := c.Submit(cluster.JobConfig{
					Profile:  mustGround(env, of.job),
					Policy:   pol,
					Deadline: of.deadline,
					Start:    of.start,
					Tracked:  true,
					NoTrace:  true,
				})
				if err != nil {
					return AdmissionOutcome{}, err
				}
				handles = append(handles, h)
			}
			if err := c.Run(); err != nil {
				return AdmissionOutcome{}, err
			}
			o := AdmissionOutcome{Mode: mode, Offered: len(stream), Admitted: len(handles)}
			for _, h := range handles {
				if h.Result().Met {
					o.Met++
				}
			}
			return o, nil
		})
	}
	var err error
	if out.Outcomes, err = runGrid(env, tasks); err != nil {
		return nil, err
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
