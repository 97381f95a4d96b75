package main

import (
	"fmt"
	"time"

	"github.com/jockeysim/jockey/internal/cluster"
	"github.com/jockeysim/jockey/internal/fleet"
	"github.com/jockeysim/jockey/internal/stats"
)

// jockeydFlags are the cmd/jockeyd flags the fleet workloads set; zero
// values mean the flag is not given.
type jockeydFlags struct {
	machines, slots, budget, arrivals int
	meanInterarrival                  time.Duration
	load                              float64
	guarded                           bool
	driftEvery                        int
	outageAt, outageDuration          time.Duration
	outageMachines                    int
}

// config builds the fleet.Config cmd/jockeyd builds from the same flags.
func (f jockeydFlags) config(seed uint64) fleet.Config {
	cfg := fleet.Config{
		Seed:             seed,
		Machines:         f.machines,
		SlotsPerMachine:  f.slots,
		Budget:           f.budget,
		Arrivals:         f.arrivals,
		MeanInterarrival: f.meanInterarrival,
		LoadFactor:       f.load,
		Arbitration:      fleet.UtilityGreedy,
		Guarded:          f.guarded,
		DriftEvery:       f.driftEvery,
	}
	if f.outageAt > 0 || f.outageMachines > 0 || f.outageDuration > 0 {
		cfg.RackOutages = []cluster.RackOutage{{
			At:           f.outageAt,
			FirstMachine: 0,
			Machines:     f.outageMachines,
			Duration:     f.outageDuration,
		}}
	}
	return cfg
}

// fleetScaleFlags: many jobs on a medium cluster. Hundreds of concurrently
// re-guaranteed jobs keep the cluster engine busy; no guard or OnlineSim
// work runs.
var fleetScaleFlags = jockeydFlags{
	machines: 700, slots: 5, budget: 3500, arrivals: 2400, meanInterarrival: 8 * time.Second,
}

// fleetGuardedFlags: 3x overload with drift and a rack outage, which walks
// the whole guard chain (OnlineSim, re-profiling, Amdahl, panic latch).
var fleetGuardedFlags = jockeydFlags{
	machines: 200, slots: 5, budget: 1000, arrivals: 400, meanInterarrival: 30 * time.Second,
	load: 3, guarded: true, driftEvery: 3,
	outageAt: time.Hour, outageMachines: 40, outageDuration: time.Hour,
}

// fleetReplay is one jockeyd replay, repeated on a warm model cache and one
// reused cluster engine.
type fleetReplay struct {
	flags       jockeydFlags
	minAdmitted int
	seed        uint64
	models      *fleet.ModelCache // built as jockeyd builds it
	engine      *cluster.Engine
	last        *fleet.Result

	// Observer state of the last traced repetition.
	epochs    []fleet.EpochStats
	epochGaps []float64 // host ms between consecutive epochs
	lastEpoch time.Time
}

func newFleet(flags jockeydFlags, minAdmitted int) func(uint64) workload {
	return func(seed uint64) workload {
		return &fleetReplay{flags: flags, minAdmitted: minAdmitted, seed: seed}
	}
}

// setup is what every jockeyd invocation pays: a fresh model cache (seeded
// as jockeyd seeds it), a fresh engine, and one cold replay that builds a
// model for each job shape.
func (f *fleetReplay) setup(tr *tracer, m *meter) error {
	f.models = fleet.NewModelCache(stats.DeriveSeed(f.seed, "fleet-models"))
	f.models.SetParallelism(1)
	f.engine = cluster.NewEngine()
	return f.rep(tr, m)
}

func (f *fleetReplay) rep(tr *tracer, _ *meter) error {
	cfg := f.flags.config(f.seed)
	cfg.Models = f.models
	cfg.Engine = f.engine
	if tr != nil {
		f.epochs, f.epochGaps, f.lastEpoch = f.epochs[:0], f.epochGaps[:0], time.Time{}
		cfg.OnEpoch = f.observe
	}
	sp := tr.begin("fleet.run")
	res, err := fleet.Run(cfg)
	tr.end(sp)
	f.last = res
	return err
}

func (f *fleetReplay) observe(s fleet.EpochStats) {
	now := time.Now()
	if !f.lastEpoch.IsZero() {
		f.epochGaps = append(f.epochGaps, now.Sub(f.lastEpoch).Seconds()*1e3)
	}
	f.lastEpoch = now
	f.epochs = append(f.epochs, s)
}

// output is what jockeyd prints.
func (f *fleetReplay) output() string { return f.last.Render() }

func (f *fleetReplay) check() error {
	res := f.last
	offered := len(res.Jobs)
	switch {
	case offered != f.flags.arrivals:
		return fmt.Errorf("%d offers, want %d", offered, f.flags.arrivals)
	case res.Admitted+res.Rejected != offered:
		return fmt.Errorf("admitted %d + rejected %d != offered %d", res.Admitted, res.Rejected, offered)
	case res.Met+res.Missed != offered:
		return fmt.Errorf("met %d + missed %d != offered %d", res.Met, res.Missed, offered)
	case res.Admitted < f.minAdmitted:
		return fmt.Errorf("admitted %d jobs, want >= %d", res.Admitted, f.minAdmitted)
	}
	return nil
}

// metFrac is met offers over all offers: a rejected offer is a miss.
func (f *fleetReplay) metFrac() float64 { return float64(f.last.Met) / float64(len(f.last.Jobs)) }

func (f *fleetReplay) layers(r *report, _ *tracer) {
	res := f.last
	shapes := map[string]bool{}
	var deferrals, panics, fallback int
	var waits []float64
	misses := map[string]int{}
	for i := range res.Jobs {
		rec := &res.Jobs[i]
		shapes[rec.Shape] = true
		deferrals += rec.Deferrals
		panics += rec.Panics
		if rec.GuardMode != "" && rec.GuardMode != "primary" {
			fallback++
		}
		if rec.Admitted {
			waits = append(waits, (rec.AdmittedAt - rec.Arrival).Seconds())
		}
		misses[rec.Attribution]++
	}
	r.set("model.builds", float64(len(shapes)))
	r.set("fleet.model_shapes", float64(len(shapes)))
	r.set("fleet.epochs", float64(res.Epochs))
	r.set("fleet.admitted_frac", float64(res.Admitted)/float64(len(res.Jobs)))
	r.set("fleet.deferrals", float64(deferrals))
	r.set("fleet.admit_wait_p50_s", median(waits))
	for _, m := range missMechanisms {
		r.set("fleet.miss."+m, float64(misses[m]))
	}
	r.set("control.guard_panics", float64(panics))
	r.set("control.guard_fallback_jobs", float64(fallback))
	r.set("cluster.utilization", res.Utilization)

	var bidders, heapOps float64
	var active, latched int
	for _, s := range f.epochs {
		bidders += float64(s.Bidders)
		heapOps += float64(s.HeapOps)
		active = max(active, s.Active)
		latched = max(latched, s.Latched)
	}
	if n := float64(len(f.epochs)); n > 0 {
		r.set("fleet.bidders_mean", bidders/n)
		r.set("fleet.heapops_mean", heapOps/n)
	}
	r.set("fleet.active_max", float64(active))
	r.set("control.latched_max", float64(latched))
	r.set("fleet.epoch_ms_p50", stats.Quantile(f.epochGaps, 0.5))
	r.set("fleet.epoch_ms_p95", stats.Quantile(f.epochGaps, 0.95))
}
