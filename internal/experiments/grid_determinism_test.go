package experiments

import (
	"strings"
	"testing"
)

// goldenRenders runs the three grid-converted experiments that exercise every
// executor path (per-policy fan-out, per-case folding, paired robustness
// cells) on a fresh Env at the given grid parallelism and returns the
// concatenated rendered tables.
func goldenRenders(t *testing.T, parallel int) string {
	t.Helper()
	env := NewEnv(7)
	env.GridParallel = parallel
	var b strings.Builder
	cmp, err := PolicyComparison(env, ComparisonConfig{
		Jobs:         []string{"B", "E"},
		SeedsPerCase: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(cmp.RenderFig4())
	b.WriteString(cmp.RenderFig5())
	f11, err := Sensitivity(env, []string{"B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(f11.Render())
	rb, err := RobustnessFlight(env, RobustnessConfig{Job: "B", SeedsPerCell: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(rb.Render())
	return b.String()
}

// TestGridRendersBitIdenticalAcrossParallelism is the executor's determinism
// contract: the rendered experiment tables are byte-identical whether the
// grid runs on one worker or many. Parallelism 1 exercises the purely
// sequential path; 4 and 8 oversubscribe the scheduler (more workers than
// grid points per case) so task claiming order genuinely varies.
func TestGridRendersBitIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small experiment suite three times")
	}
	want := goldenRenders(t, 1)
	for _, par := range []int{4, 8} {
		if got := goldenRenders(t, par); got != want {
			t.Errorf("parallelism %d diverged from serial renders:\n--- got ---\n%s\n--- want ---\n%s",
				par, got, want)
		}
	}
}

// benchEnv is shared across grid benchmarks so model construction (the
// dominant one-time cost) is excluded from the measured loop.
var benchEnv *Env

func gridBenchEnv(b *testing.B) *Env {
	b.Helper()
	if benchEnv == nil {
		benchEnv = NewEnv(7)
		// Warm the model caches outside the timed region.
		if _, _, err := benchEnv.Deadlines("B"); err != nil {
			b.Fatal(err)
		}
	}
	return benchEnv
}

// BenchmarkGridSerial measures the robustness grid (20 cluster replays with
// per-worker engine and background-pool reuse) on a single worker.
func BenchmarkGridSerial(b *testing.B) {
	env := gridBenchEnv(b)
	env.GridParallel = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RobustnessFlight(env, RobustnessConfig{Job: "B", SeedsPerCell: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridParallel is BenchmarkGridSerial at GOMAXPROCS workers; on a
// multi-core machine the wall-clock ratio to the serial benchmark is the
// executor's speedup, on one core it bounds the pool's overhead.
func BenchmarkGridParallel(b *testing.B) {
	env := gridBenchEnv(b)
	env.GridParallel = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RobustnessFlight(env, RobustnessConfig{Job: "B", SeedsPerCell: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
