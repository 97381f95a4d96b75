package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/control"
	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/utility"
)

// FuzzClusterReplay generates small cluster replays — 2 to 12 tracked and
// untracked jobs, guarantees re-set from OnEpoch and by control policies,
// contention windows, deadline changes, stage drift, rack outages and MTBF
// failures — and checks the promises the engine makes on each of them:
//
//   - every scheduling pass matches the classes derived from scratch by
//     the checkPass hook of engine_ref_test.go, active in every test of
//     this package;
//   - it is byte-identical on a fresh cluster and on a reused engine, over
//     two rounds on an engine first warmed on a second scenario, generated
//     from the input with every byte shifted by one, so jobs take task sets
//     reshaped from other plans as well as sets of their own;
//   - jobs that share a plan, and so pass task sets on as they complete and
//     arrive, get the results they get on their own copies of the plan;
//   - extra scheduling passes change nothing: with one job that neither a
//     controller nor the epoch hook drives put under a constant policy
//     that ticks every 7 s, every tracked job gets the same task events and
//     completion.
func FuzzClusterReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("jockey"))
	f.Add([]byte{3, 1, 7, 0, 2, 1, 4, 0, 9, 2, 5, 1, 0, 3, 3, 2, 1, 0, 6, 8, 0, 1, 2})
	f.Add([]byte{6, 3, 42, 0, 1, 2, 9, 0, 2, 3, 0, 1, 2, 7, 1, 0, 11, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0, 255, 200, 17, 4, 4, 4, 4, 4, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 250, 128, 64})
	f.Add([]byte(strings.Repeat("\x05\x02\x00\x01\x03\x00\x04", 12)))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := genScenario(t, data)
		want := sc.replay(t, New)
		eng := NewEngine()
		shifted := make([]byte, len(data))
		for i, b := range data {
			shifted[i] = b + 1
		}
		genScenario(t, shifted).replay(t, eng.Reset)
		for round := 0; round < 2; round++ {
			if got := sc.replay(t, eng.Reset); got != want {
				t.Fatalf("reused engine round %d diverged from a fresh cluster:\n got %s\nwant %s", round, got, want)
			}
		}
		if got := sc.ownPlans().replay(t, New); got != want {
			t.Fatalf("jobs on their own copies of their plans diverged from shared plans:\n got %s\nwant %s", got, want)
		}
		if ticked := sc.undriven(); ticked >= 0 {
			want := renderTracked(sc.run(t, New, -1))
			if got := renderTracked(sc.run(t, New, ticked)); got != want {
				t.Fatalf("job %d under a constant 7 s policy changed the tracked jobs:\n got %s\nwant %s", ticked, got, want)
			}
		}
	})
}

// fuzzBytes reads a fuzz input as a stream of small choices; an exhausted
// input reads as zeros, so every input, even an empty one, is a scenario.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) intn(n int) int {
	if f.i >= len(f.b) {
		return 0
	}
	v := int(f.b[f.i])
	f.i++
	return v % n
}

func (f *fuzzBytes) secs(n int) time.Duration { return time.Duration(f.intn(n)) * 10 * time.Second }

// fuzzScenario is one generated replay: the cluster, and per job its
// submission plus whether a controller or the epoch hook drives its
// guarantee.
type fuzzScenario struct {
	cfg    Config
	jobs   []JobConfig
	policy []bool
	epochs bool
	salt   int
}

func genScenario(t *testing.T, data []byte) *fuzzScenario {
	fb := &fuzzBytes{b: data}
	machines := 2 + fb.intn(7)
	sc := &fuzzScenario{cfg: Config{
		Machines:        machines,
		SlotsPerMachine: 1 + fb.intn(3),
		Seed:            uint64(fb.intn(256)),
		MachineRecovery: stats.Point{V: 30*time.Second + fb.secs(6)},
	}}
	if fb.intn(3) == 0 {
		sc.cfg.MachineMTBF = 2*time.Minute + fb.secs(48)
	}
	for i, n := 0, fb.intn(3); i < n; i++ {
		first := fb.intn(machines)
		sc.cfg.RackOutages = append(sc.cfg.RackOutages, RackOutage{
			At: fb.secs(36), FirstMachine: first, Machines: 1 + fb.intn(machines-first),
			Duration: 20*time.Second + fb.secs(12),
		})
	}
	for i, n := 0, fb.intn(3); i < n; i++ {
		from := fb.secs(30)
		sc.cfg.Contention = append(sc.cfg.Contention, ContentionWindow{
			From: from, To: from + 10*time.Second + fb.secs(20), Frac: float64(fb.intn(10)) / 10,
		})
	}
	if fb.intn(2) == 0 {
		sc.epochs = true
		sc.cfg.EpochPeriod = 10*time.Second + fb.secs(6)
		sc.salt = fb.intn(16)
	}
	for i, n := 0, 2+fb.intn(11); i < n; i++ {
		p := genProfile(t, fb, fmt.Sprintf("j%d", i))
		tracked := i == 0 || fb.intn(2) == 0
		jc := JobConfig{
			Profile:   p,
			Guarantee: 1 + fb.intn(5),
			Weight:    1 + fb.intn(3),
			Tracked:   tracked,
			NoSpare:   fb.intn(6) == 0,
			Start:     fb.secs(20),
		}
		if tracked {
			jc.Deadline = 20 * time.Minute
		}
		if fb.intn(3) == 0 {
			jc.DeadlineChanges = []DeadlineChange{{At: 10*time.Second + fb.secs(20), Deadline: 5*time.Minute + fb.secs(60)}}
		}
		if fb.intn(3) == 0 {
			jc.Drifts = []StageDrift{{At: fb.secs(20), Stage: fb.intn(p.Job.NumStages()+1) - 1,
				Factor: 0.5 + float64(fb.intn(4))*0.5}}
		}
		sc.jobs = append(sc.jobs, jc)
		sc.policy = append(sc.policy, tracked && fb.intn(3) == 0)
	}
	// Some jobs rerun an earlier job's plan, so that jobs of one plan pass a
	// task set on. These choices come last, so an input the loop above reads
	// to its end decodes as it did before they existed.
	for i := 1; i < len(sc.jobs); i++ {
		if fb.intn(3) != 2 {
			continue
		}
		jc := &sc.jobs[i]
		jc.Profile = sc.jobs[fb.intn(i)].Profile
		for k := range jc.Drifts {
			if jc.Drifts[k].Stage >= jc.Profile.Job.NumStages() {
				jc.Drifts[k].Stage = -1
			}
		}
	}
	return sc
}

// ownPlans returns the scenario with every job on its own structurally
// equal copy of its plan: no two jobs share a *dag.Job, so none shares a
// task set either.
func (sc *fuzzScenario) ownPlans() *fuzzScenario {
	own := *sc
	own.jobs = slices.Clone(sc.jobs)
	for i := range own.jobs {
		p := *own.jobs[i].Profile
		job := *p.Job
		p.Job = &job
		own.jobs[i].Profile = &p
	}
	return &own
}

// genProfile builds a chain of one to three stages of up to 16 tasks.
func genProfile(t *testing.T, fb *fuzzBytes, name string) *profile.Profile {
	b := dag.NewBuilder(name)
	stages := 1 + fb.intn(3)
	var sps []profile.StageProfile
	for s := 0; s < stages; s++ {
		b.Stage(fmt.Sprintf("s%d", s), 1+fb.intn(16))
		if s > 0 {
			kind := dag.OneToOne
			if fb.intn(2) == 0 {
				kind = dag.AllToAll
			}
			b.Edge(fmt.Sprintf("s%d", s-1), fmt.Sprintf("s%d", s), kind)
		}
		median := 5*time.Second + fb.secs(4)
		sp := profile.StageProfile{
			Exec:        stats.LognormalFromMedian(median, median*time.Duration(2+fb.intn(2))),
			FailureProb: float64(fb.intn(4)) * 0.03,
		}
		if fb.intn(2) == 0 {
			sp.Exec = stats.Point{V: median}
		}
		if fb.intn(3) == 0 {
			sp.Queue = stats.Exponential{MeanValue: time.Second}
		}
		sps = append(sps, sp)
	}
	job, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.New(job, sps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// undriven returns the first job that neither a controller nor the epoch
// hook drives, or -1 when there is none.
func (sc *fuzzScenario) undriven() int {
	if sc.epochs {
		return -1
	}
	for i, p := range sc.policy {
		if !p {
			return i
		}
	}
	return -1
}

// replay runs the scenario on a cluster from mk (New or Engine.Reset) and
// renders everything it produced.
func (sc *fuzzScenario) replay(t *testing.T, mk func(Config) (*Cluster, error)) string {
	c, hs, runErr := sc.run(t, mk, -1)
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v now=%v util=%b\n", runErr, c.Now(), c.Utilization())
	for i, h := range hs {
		r := h.Result()
		tr := r.Trace
		r.Trace = nil
		fmt.Fprintf(&b, "job %d done=%v %+v\n", i, h.Done(), r)
		if tr != nil {
			fmt.Fprintf(&b, "trace %+v\n", *tr)
		}
	}
	return b.String()
}

// renderTracked renders what a run promises its tracked jobs whatever the
// number of scheduling passes: the Run error, and each tracked job's
// completion and task events.
func renderTracked(_ *Cluster, hs []*Handle, runErr error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v\n", runErr)
	for i, h := range hs {
		if r := h.Result(); r.Trace != nil {
			fmt.Fprintf(&b, "job %d done=%v completion=%v events=%+v\n", i, h.Done(), r.Completion, r.Trace.Events)
		}
	}
	return b.String()
}

// run replays the scenario on a cluster from mk. Job ticked, unless it is
// -1, runs under a constant policy at its own guarantee that ticks every
// 7 s.
func (sc *fuzzScenario) run(t *testing.T, mk func(Config) (*Cluster, error), ticked int) (*Cluster, []*Handle, error) {
	cfg := sc.cfg
	var hs []*Handle
	if sc.epochs {
		epoch := 0
		cfg.OnEpoch = func(time.Duration) bool {
			epoch++
			for i, h := range hs {
				if !sc.policy[i] {
					h.SetGuarantee((epoch*3 + i + sc.salt) % 5)
				}
			}
			return true
		}
	}
	c, err := mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, jc := range sc.jobs {
		if sc.policy[i] {
			pol, err := control.NewController(control.Config{
				Predictor:  model.NewAmdahl(jc.Profile),
				Utility:    utility.Deadline(jc.Deadline),
				Candidates: SLODefaults(8),
			})
			if err != nil {
				t.Fatal(err)
			}
			jc.Policy = pol
			jc.ControlPeriod = 30 * time.Second
		}
		if i == ticked {
			pol, err := control.NewMaxAllocation(jc.Guarantee)
			if err != nil {
				t.Fatal(err)
			}
			jc.Policy = pol
			jc.ControlPeriod = 7 * time.Second
		}
		h, err := c.Submit(jc)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return c, hs, c.Run()
}
