// Layer micro-benchmarks for model construction and the ablations of the
// design choices called out in DESIGN.md. End-to-end figures (every paper
// artifact, the fleet replays, the cosmos replay) come from bench/run.sh.
//
// Run with:
//
//	go test -run '^$' -bench=. -benchmem
package jockey_test

import (
	"strconv"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/progress"
	"github.com/jockeysim/jockey/internal/workload"
)

// --- model construction benchmarks ---

// BenchmarkCPABuild measures the offline model construction for one job —
// the precomputation Jockey amortizes across runs of a recurring job. The
// sub-benchmarks vary the worker-pool size; per-cell seeding plus the
// deterministic merge make every variant build the bit-identical table, so
// the ratio between p1 and pN is pure wall-clock speedup (bounded by the
// machine's core count). The pN cases build on a fresh model.Builder each
// time; the warm-pN cases reuse one, as a guard's rebuilds do, and so
// allocate little beyond the table itself.
func BenchmarkCPABuild(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "E"), 1)
	ind := progress.NewTotalWorkWithQ(p)
	grid := []int{5, 10, 20, 40, 80}
	build := func(b *testing.B, mb *model.Builder, seed uint64, par int) {
		_, err := mb.BuildCPA(p, ind, model.CPAConfig{
			Allocs:       grid,
			RunsPerAlloc: 5,
			Seed:         seed,
			Parallelism:  par,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run("p"+strconv.Itoa(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				build(b, new(model.Builder), uint64(i), par)
			}
		})
	}
	for _, par := range []int{1, 4} {
		b.Run("warm-p"+strconv.Itoa(par), func(b *testing.B) {
			mb := new(model.Builder)
			build(b, mb, 0, par)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build(b, mb, uint64(i), par)
			}
		})
	}
}

// BenchmarkOnlineSim measures one control-tick's worth of online forward
// prediction (every candidate allocation at one state) across worker-pool
// sizes — the §4.4 enhancement's per-decision cost that parallelism must
// amortize for it to be usable inside a 1-minute control period.
func BenchmarkOnlineSim(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "B"), 1)
	st := model.State{Elapsed: 10 * time.Minute, FracDone: halfDone(p)}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run("p"+strconv.Itoa(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := model.NewOnlineSim(p, 8, uint64(i), nil)
				if err != nil {
					b.Fatal(err)
				}
				o.SetParallelism(par)
				for _, a := range []int{5, 10, 20, 40, 80} {
					o.Samples(st, a)
				}
			}
		})
	}
}

// --- ablation benchmarks (design choices in DESIGN.md §5) ---

// BenchmarkAblationRunsPerAlloc compares how many offline simulations feed
// each allocation: more runs tighten the worst-case estimate.
func BenchmarkAblationRunsPerAlloc(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "B"), 1)
	ind := progress.NewTotalWorkWithQ(p)
	for _, runs := range []int{2, 8, 32} {
		b.Run(fmtInt(runs), func(b *testing.B) {
			var worst time.Duration
			for i := 0; i < b.N; i++ {
				c, err := new(model.Builder).BuildCPA(p, ind, model.CPAConfig{
					Allocs:       []int{40},
					RunsPerAlloc: runs,
					Seed:         9,
				})
				if err != nil {
					b.Fatal(err)
				}
				worst = model.Remaining(c, model.State{FracDone: make([]float64, p.Job.NumStages())}, 40, 1.0)
			}
			b.ReportMetric(worst.Seconds(), "worst-case-pred-s")
		})
	}
}

func mustSpec(b *testing.B, name string) workload.JobSpec {
	b.Helper()
	s, err := workload.Spec(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// halfDone builds a stage-fraction vector with every stage half complete.
func halfDone(p *profile.Profile) []float64 {
	fs := make([]float64, p.Job.NumStages())
	for i := range fs {
		fs[i] = 0.5
	}
	return fs
}

func fmtInt(v int) string { return "n" + strconv.Itoa(v) }

// BenchmarkAblationOnlineSim compares the per-decision predictor cost of
// the precomputed C(p,a) table against online forward simulation (§4.4's
// proposed enhancement): the table answers in microseconds, the online
// simulator pays a fresh simulation per candidate allocation. It times the
// predictor alone; the controller's expected-utility sums are not included.
func BenchmarkAblationOnlineSim(b *testing.B) {
	p := workload.MustGenerate(mustSpec(b, "B"), 1)
	st := model.State{Elapsed: 10 * time.Minute, FracDone: halfDone(p)}
	b.Run("cpa-table", func(b *testing.B) {
		cpa, err := new(model.Builder).BuildCPA(p, progress.NewTotalWorkWithQ(p), model.CPAConfig{
			Allocs: []int{5, 10, 20, 40, 80}, RunsPerAlloc: 6, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range cpa.Allocs() {
				cpa.Samples(st, a)
			}
		}
	})
	b.Run("online-sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o, err := model.NewOnlineSim(p, 3, uint64(i), nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range []int{5, 10, 20, 40, 80} {
				o.Samples(st, a)
			}
		}
	})
}
