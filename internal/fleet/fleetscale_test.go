package fleet

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
)

// fleetScaleConfig is the thousands-of-jobs acceptance workload (ROADMAP
// item: fleet-scale throughput): a 3,500-slot cluster offered 2,400 jobs
// at one offer per 8 seconds, which admits well over 2,000 of them and
// keeps hundreds active per epoch. The per-epoch water-fill and the
// admission machinery — not the task simulation — dominate this replay,
// so it is the benchmark that moves when the arbiter's epoch cost does.
func fleetScaleConfig() Config {
	return Config{
		Seed:             11,
		Machines:         700,
		SlotsPerMachine:  5,
		Budget:           3500,
		Arrivals:         2400,
		MeanInterarrival: 8 * time.Second,
	}
}

// TestFleetScaleReplay is the acceptance test for the fleet-scale
// contract: ≥2,000 admitted jobs, grants byte-identical to the retired
// reference scan on every epoch, and arbiter epoch cost staying within a
// linear budget of the active-job count.
func TestFleetScaleReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fleet-scale replay pays the reference scan's quadratic cost")
	}
	cfg := fleetScaleConfig()
	armRefCheck(t, &cfg)
	rungs := maxGridRungs(t)
	cfg.OnEpoch = func(s EpochStats) {
		if s.Bidders > 0 && s.HeapOps > 8*s.Bidders*rungs {
			t.Errorf("epoch at %v: %d heap ops for %d bidders exceeds the linear budget", s.At, s.HeapOps, s.Bidders)
		}
	}
	res := mustRun(t, cfg)
	if res.Admitted < 2000 {
		t.Fatalf("fleet-scale replay admitted %d jobs, want >= 2000", res.Admitted)
	}
}

// BenchmarkFleetScaleReplay times the 2,400-offer replay with models and
// engine warmed outside the loop, so the measurement is admission,
// arbitration, and simulation — the fleet-scale hot path.
func BenchmarkFleetScaleReplay(b *testing.B) {
	models := NewModelCache(99)
	eng := cluster.NewEngine()
	warm := fleetScaleConfig()
	warm.Models = models
	warm.Engine = eng
	if _, err := Run(warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := fleetScaleConfig()
		cfg.Models = models
		cfg.Engine = eng
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
