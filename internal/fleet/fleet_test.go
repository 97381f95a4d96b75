package fleet

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
)

// stressConfig is the shared overload + rack-outage + drift scenario: 16
// offers at 3× the sized arrival rate onto a 60-token budget, with 11 of
// 20 machines lost for 20 minutes and every 4th job drifting mid-run.
func stressConfig(seed uint64, arb Arbitration, guarded bool) Config {
	return Config{
		Seed:        seed,
		Arrivals:    16,
		LoadFactor:  3,
		Budget:      60,
		Arbitration: arb,
		Guarded:     guarded,
		DriftEvery:  4,
		RackOutages: []cluster.RackOutage{{
			At: 12 * time.Minute, FirstMachine: 0, Machines: 11, Duration: 20 * time.Minute,
		}},
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	return res
}

// The golden determinism pin: one guarded stress replay, byte-identical
// however much parallelism the model builds use.
func TestFleetReplayBitIdenticalAcrossParallelism(t *testing.T) {
	var want string
	for _, par := range []int{1, 4, 8} {
		models := NewModelCache(99)
		models.SetParallelism(par)
		cfg := stressConfig(2, UtilityGreedy, true)
		cfg.Models = models
		got := mustRun(t, cfg).Render()
		if par == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("replay output differs at model parallelism %d:\n%s\n--- want ---\n%s", par, got, want)
		}
	}
}

// A reused engine (twice over) must replay bit-identically to a fresh
// cluster, for every discipline.
func TestFleetFreshVsReusedEngineBitIdentical(t *testing.T) {
	for _, d := range []struct {
		arb     Arbitration
		guarded bool
	}{{FIFO, false}, {FairShare, false}, {UtilityGreedy, false}, {UtilityGreedy, true}} {
		models := NewModelCache(99)
		fresh := mustRun(t, func() Config {
			cfg := stressConfig(2, d.arb, d.guarded)
			cfg.Models = models
			return cfg
		}()).Render()
		eng := cluster.NewEngine()
		for round := 1; round <= 2; round++ {
			cfg := stressConfig(2, d.arb, d.guarded)
			cfg.Models = models
			cfg.Engine = eng
			if got := mustRun(t, cfg).Render(); got != fresh {
				t.Fatalf("%s round %d: reused-engine replay differs from fresh:\n%s\n--- want ---\n%s",
					d.arb, round, got, fresh)
			}
		}
	}
}

// A shared pre-warmed model cache must not change the replay: model
// outputs depend only on the cache seed and shape key, never on who
// warmed them or in what order.
func TestFleetSharedModelCacheBitIdentical(t *testing.T) {
	private := mustRun(t, func() Config {
		cfg := stressConfig(3, UtilityGreedy, true)
		m := NewModelCache(99)
		cfg.Models = m
		return cfg
	}()).Render()

	shared := NewModelCache(99)
	// Warm the cache in an unrelated order (reverse shape table, scaled
	// variants first) before the replay uses it.
	for i := len(fleetShapes) - 1; i >= 0; i-- {
		s := fleetShapes[i]
		s.Scale = 1.2
		if _, err := shared.Model(s); err != nil {
			t.Fatalf("warm %s: %v", s.Key(), err)
		}
	}
	cfg := stressConfig(3, UtilityGreedy, true)
	cfg.Models = shared
	if got := mustRun(t, cfg).Render(); got != private {
		t.Fatalf("shared-cache replay differs from private-cache replay:\n%s\n--- want ---\n%s", got, private)
	}
}

// The containment latch: with one drifting job driving its guard into
// max-allocation panic, containment keeps every feasible peer on its
// deadline (zero induced misses).
func TestFleetGuardPanicContainment(t *testing.T) {
	base := Config{
		Seed:       4,
		Arrivals:   8,
		LoadFactor: 1.6,
		Budget:     50,
		Guarded:    true,
		DriftEvery: 8,
	}

	contained := mustRun(t, base)
	panics := 0
	for _, rec := range contained.Jobs {
		panics += rec.Panics
		if rec.Drift || !rec.Admitted {
			continue
		}
		if !rec.Met {
			t.Errorf("contained run: feasible peer %d (%s) missed its deadline", rec.ID, rec.Shape)
		}
	}
	if panics == 0 {
		t.Fatalf("contained run: expected at least one guard panic, got none")
	}
}

// A guarded job ends in one of the guard's two modes: on its (possibly
// re-profiled) C(p, a) table, or latched in panic. The stressed replays
// drift every fourth job, so their guards see stale models.
func TestFleetGuardModesArePrimaryOrPanic(t *testing.T) {
	for _, seed := range []uint64{2, 8} {
		res := mustRun(t, stressConfig(seed, UtilityGreedy, true))
		drifted := 0
		for _, rec := range res.Jobs {
			if !rec.Completed {
				continue
			}
			if rec.Drift {
				drifted++
			}
			if rec.GuardMode != "primary" && rec.GuardMode != "panic" {
				t.Errorf("seed %d: job %d (%s) ended in guard mode %q, want primary or panic",
					seed, rec.ID, rec.Shape, rec.GuardMode)
			}
		}
		if drifted == 0 {
			t.Fatalf("seed %d: no drifting job completed; the replay tests no stale model", seed)
		}
	}
}

// Tally and attribution invariants on a stressed replay.
func TestFleetTalliesAndAttribution(t *testing.T) {
	res := mustRun(t, stressConfig(8, UtilityGreedy, true))
	if res.Admitted+res.Rejected != len(res.Jobs) {
		t.Fatalf("admitted %d + rejected %d != offers %d", res.Admitted, res.Rejected, len(res.Jobs))
	}
	if res.Met+res.Missed != len(res.Jobs) {
		t.Fatalf("met %d + missed %d != offers %d", res.Met, res.Missed, len(res.Jobs))
	}
	if res.Rejected == 0 {
		t.Fatalf("stress config should reject at least one offer")
	}
	sum := 0.0
	for _, rec := range res.Jobs {
		sum += rec.Utility
		if rec.Deferrals > res.Epochs {
			t.Errorf("job %d: %d deferrals exceed %d epochs", rec.ID, rec.Deferrals, res.Epochs)
		}
		switch {
		case rec.Rejected:
			if rec.Attribution != "admission" {
				t.Errorf("job %d: rejected offer attributed to %q, want admission", rec.ID, rec.Attribution)
			}
			if rec.RejectReason == "" {
				t.Errorf("job %d: rejected without a reason", rec.ID)
			}
		case rec.Met:
			if rec.Attribution != "" {
				t.Errorf("job %d: met its deadline but attributed to %q", rec.ID, rec.Attribution)
			}
		default:
			switch rec.Attribution {
			case "admission", "arbitration", "guard", "model":
			default:
				t.Errorf("job %d: miss attributed to unknown mechanism %q", rec.ID, rec.Attribution)
			}
		}
	}
	if diff := sum - res.AggUtility; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("per-job utilities sum to %v, aggregate says %v", sum, res.AggUtility)
	}
}

// Config validation: unsupported combinations fail loudly, not silently.
func TestFleetConfigValidation(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string // a substring naming the offending field
	}{
		{Config{Arbitration: "priority"}, "arbitration"},
		{Config{Guarded: true, Arbitration: FIFO}, "guarded"},
		{Config{Budget: -1}, "budget"},
		{Config{LoadFactor: -2}, "load factor"},
		{Config{LoadFactor: math.NaN()}, "load factor"},
		{Config{LoadFactor: math.Inf(1)}, "load factor"},
		// Finite and positive, but the first gap overflows time.Duration.
		{Config{LoadFactor: 1e-300}, "offer 0"},
		{Config{DriftEvery: -3}, "DriftEvery"},
	}
	for _, tc := range cases {
		_, err := Run(tc.cfg)
		if err == nil {
			t.Errorf("Run(%+v) accepted an invalid config", tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run(%+v) error %q does not name %q", tc.cfg, err, tc.want)
		}
	}
}

// The epoch observer sees a monotone clock and internally consistent
// budgets.
func TestFleetEpochObserver(t *testing.T) {
	cfg := stressConfig(2, UtilityGreedy, true)
	last := time.Duration(-1)
	ticks := 0
	cfg.OnEpoch = func(s EpochStats) {
		ticks++
		if s.At <= last {
			t.Fatalf("epoch clock went backwards: %v after %v", s.At, last)
		}
		last = s.At
		if s.Granted > s.Budget {
			t.Fatalf("epoch %v granted %d beyond budget %d", s.At, s.Granted, s.Budget)
		}
	}
	res := mustRun(t, cfg)
	if ticks != res.Epochs {
		t.Fatalf("observer saw %d epochs, result says %d", ticks, res.Epochs)
	}
}

// Render stays stable under repeated invocation (no internal mutation).
func TestFleetRenderStable(t *testing.T) {
	res := mustRun(t, Config{Seed: 7})
	if a, b := res.Render(), res.Render(); a != b {
		t.Fatalf("Render is not idempotent")
	}
	if !strings.Contains(res.Render(), "fleet utility-greedy") {
		t.Fatalf("Render misses the discipline header:\n%s", res.Render())
	}
}

func BenchmarkFleetReplay(b *testing.B) {
	models := NewModelCache(99)
	eng := cluster.NewEngine()
	// Warm models outside the timed loop: the benchmark measures the
	// replay, not the offline profiling.
	warm := stressConfig(2, UtilityGreedy, true)
	warm.Models = models
	warm.Engine = eng
	if _, err := Run(warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := stressConfig(2, UtilityGreedy, true)
		cfg.Models = models
		cfg.Engine = eng
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
