package workload

import (
	"math"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/sim"
	"github.com/jockeysim/jockey/internal/stats"
)

func TestSpecLookup(t *testing.T) {
	s, err := Spec("F")
	if err != nil {
		t.Fatal(err)
	}
	if s.Stages != 26 || s.Vertices != 6139 {
		t.Errorf("spec F = %+v", s)
	}
	if _, err := Spec("Z"); err == nil {
		t.Error("unknown spec must fail")
	}
}

func TestGenerateStructureMatchesTableTwo(t *testing.T) {
	for _, spec := range TableTwo {
		p := MustGenerate(spec, 1)
		job := p.Job
		if job.NumStages() != spec.Stages {
			t.Errorf("job %s: stages %d, want %d", spec.Name, job.NumStages(), spec.Stages)
		}
		if job.TotalTasks() != spec.Vertices {
			t.Errorf("job %s: vertices %d, want %d", spec.Name, job.TotalTasks(), spec.Vertices)
		}
		if got := job.NumBarrierStages(); got != spec.Barriers {
			t.Errorf("job %s: barriers %d, want %d", spec.Name, got, spec.Barriers)
		}
		if got := job.TotalInputGB(); math.Abs(got-spec.DataGB) > 0.01 {
			t.Errorf("job %s: data %.2f GB, want %.2f", spec.Name, got, spec.DataGB)
		}
		if err := job.Validate(); err != nil {
			t.Errorf("job %s: %v", spec.Name, err)
		}
		// Plan must be connected enough to run: exactly the stages with no
		// inputs are roots, and every stage is reachable in topo order.
		if len(job.TopoOrder()) != spec.Stages {
			t.Errorf("job %s: topo incomplete", spec.Name)
		}
	}
}

func TestGenerateRuntimePercentiles(t *testing.T) {
	// Sampling each job's vertex-runtime mixture must land near the
	// published overall median and p90 (the calibration target).
	for _, spec := range TableTwo {
		p := MustGenerate(spec, 1)
		rng := stats.NewRNG(7)
		var all []time.Duration
		for s, sp := range p.Stages {
			for i := 0; i < p.Job.Stages[s].Tasks; i++ {
				all = append(all, sp.Exec.Sample(rng))
			}
		}
		e := stats.NewEmpirical(all)
		med := e.Quantile(0.5).Seconds()
		p90 := e.Quantile(0.9).Seconds()
		wantMed := spec.MedianRuntime.Seconds()
		wantP90 := spec.P90Runtime.Seconds()
		if med < wantMed*0.7 || med > wantMed*1.4 {
			t.Errorf("job %s: sampled median %.1fs, want ~%.1fs", spec.Name, med, wantMed)
		}
		if p90 < wantP90*0.6 || p90 > wantP90*1.7 {
			t.Errorf("job %s: sampled p90 %.1fs, want ~%.1fs", spec.Name, p90, wantP90)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(TableTwo[0], 5)
	b := MustGenerate(TableTwo[0], 5)
	if a.Job.NumStages() != b.Job.NumStages() || len(a.Job.Edges) != len(b.Job.Edges) {
		t.Fatal("same seed produced different plans")
	}
	for i := range a.Job.Edges {
		if a.Job.Edges[i] != b.Job.Edges[i] {
			t.Fatal("edge sets differ")
		}
	}
	for s := range a.Stages {
		if a.Stages[s].Exec.Quantile(0.5) != b.Stages[s].Exec.Quantile(0.5) {
			t.Fatal("distributions differ")
		}
	}
	c := MustGenerate(TableTwo[0], 6)
	same := true
	for s := range a.Stages {
		if a.Stages[s].Exec.Quantile(0.5) != c.Stages[s].Exec.Quantile(0.5) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical distributions")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []JobSpec{
		{Name: "x", Stages: 0, Vertices: 10},
		{Name: "x", Stages: 5, Vertices: 3},
		{Name: "x", Stages: 3, Barriers: 3, Vertices: 30, MedianRuntime: time.Second, P90Runtime: 2 * time.Second},
		{Name: "x", Stages: 3, Vertices: 30, MedianRuntime: 2 * time.Second, P90Runtime: time.Second},
		{Name: "x", Stages: 3, Vertices: 30, MedianRuntime: time.Second, P90Runtime: 2 * time.Second, FailureProb: 1.5},
	}
	for i, spec := range bad {
		if _, err := Generate(spec, 1); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestJobsGeneratesAllSeven(t *testing.T) {
	jobs := Jobs(1)
	if len(jobs) != 7 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		if jobs[name] == nil {
			t.Errorf("missing job %s", name)
		}
	}
}

func TestGeneratedJobRunsInSimulator(t *testing.T) {
	p := MustGenerate(TableTwo[1], 3) // job B: no barriers, 1605 vertices
	tr, err := sim.NewRunner().Run(sim.Config{Profile: p, Alloc: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completion <= 0 {
		t.Error("no completion")
	}
	succ := 0
	for _, e := range tr.Events {
		if !e.Failed {
			succ++
		}
	}
	if succ != p.Job.TotalTasks() {
		t.Errorf("successes %d, want %d", succ, p.Job.TotalTasks())
	}
}

func TestDefaultQueueDelay(t *testing.T) {
	q := DefaultQueueDelay()
	if q.Quantile(0) < 2*time.Second {
		t.Error("queue delay floor missing")
	}
	med := q.Quantile(0.5).Seconds()
	if med < 3 || med > 6 {
		t.Errorf("queue median %.1fs out of expected band", med)
	}
}

func TestSubmitBackground(t *testing.T) {
	c, err := cluster.New(cluster.Config{Machines: 10, SlotsPerMachine: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := SubmitBackground(c, BackgroundConfig{
		MeanInterarrival: time.Minute,
		Horizon:          30 * time.Minute,
		BurstAmplitude:   1, // steady Poisson arrivals
		Seed:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 15 || n > 60 {
		t.Errorf("submitted %d jobs, want ~30", n)
	}
	// Deterministic for the same seed.
	c2, _ := cluster.New(cluster.Config{Machines: 10, SlotsPerMachine: 4, Seed: 1})
	n2, err := SubmitBackground(c2, BackgroundConfig{
		MeanInterarrival: time.Minute,
		Horizon:          30 * time.Minute,
		BurstAmplitude:   1,
		Seed:             2,
	})
	if err != nil || n2 != n {
		t.Errorf("replay submitted %d vs %d (err %v)", n2, n, err)
	}
}

func TestSubmitBackgroundBursts(t *testing.T) {
	// With the default 3× burst amplitude, the busy half of each period
	// sees far more arrivals than the quiet half.
	c, _ := cluster.New(cluster.Config{Machines: 10, SlotsPerMachine: 4, Seed: 1})
	n, err := SubmitBackground(c, BackgroundConfig{
		MeanInterarrival: time.Minute,
		Horizon:          80 * time.Minute, // one busy + one quiet phase
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Busy phase alone expects ~120 arrivals, quiet ~13.
	if n < 60 || n > 250 {
		t.Errorf("submitted %d jobs, want bursty total ~130", n)
	}
	if _, err := SubmitBackground(c, BackgroundConfig{BurstAmplitude: 0.5}); err == nil {
		t.Error("amplitude < 1 must fail")
	}
}

func TestSubmitBackgroundValidation(t *testing.T) {
	c, _ := cluster.New(cluster.Config{})
	bad := []BackgroundConfig{
		{TasksLo: 10, TasksHi: 5},
		{GuaranteeLo: 5, GuaranteeHi: 2},
		{BarrierProb: 2},
	}
	for i, cfg := range bad {
		if _, err := SubmitBackground(c, cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGeneratePipelines(t *testing.T) {
	ps, err := GeneratePipelines(PipelineConfig{Jobs: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Gaps) == 0 || len(ps.Dependents) == 0 || len(ps.ChainLengths) == 0 {
		t.Fatalf("empty stats: %+v", ps)
	}
	// Median gap should be near the 10-minute target.
	medGap := ps.Gaps[len(ps.Gaps)/2]
	if medGap < 3*time.Minute || medGap > 30*time.Minute {
		t.Errorf("median gap %v, want ~10m", medGap)
	}
	// Preferential attachment must produce a heavy tail of dependents:
	// the top job should feed far more jobs than the median producer.
	maxDeps := ps.Dependents[len(ps.Dependents)-1]
	medDeps := ps.Dependents[len(ps.Dependents)/2]
	if maxDeps < 10*medDeps && maxDeps < 50 {
		t.Errorf("dependent counts not heavy-tailed: median %d max %d", medDeps, maxDeps)
	}
	// Group counts bounded by configured groups.
	for _, g := range ps.Groups {
		if g < 1 || g > 12 {
			t.Errorf("group count %d out of range", g)
		}
	}
	// Sorted outputs.
	for i := 1; i < len(ps.Gaps); i++ {
		if ps.Gaps[i] < ps.Gaps[i-1] {
			t.Fatal("gaps not sorted")
		}
	}
}

func TestGeneratePipelinesValidation(t *testing.T) {
	if _, err := GeneratePipelines(PipelineConfig{Jobs: 1}); err == nil {
		t.Error("too few jobs must fail")
	}
	if _, err := GeneratePipelines(PipelineConfig{DependentFraction: 1.5}); err == nil {
		t.Error("bad fraction must fail")
	}
}

func TestGeneratePipelinesDeterministic(t *testing.T) {
	a, err := GeneratePipelines(PipelineConfig{Jobs: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePipelines(PipelineConfig{Jobs: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Gaps) != len(b.Gaps) || len(a.Dependents) != len(b.Dependents) {
		t.Error("replay diverged")
	}
}
