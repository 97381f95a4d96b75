package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// workload is one benchmark workload instance, built for one seed.
type workload interface {
	// setup builds the workload's state afresh; repetitions reuse
	// the state of the last set-up. It is what a user pays once per
	// process, so its time is setup_s. Both setup and rep call m.split
	// between their units of work when a unit takes seconds.
	setup(tr *tracer, m *meter) error
	// rep replays the workload once on the set-up state.
	rep(tr *tracer, m *meter) error
	// output formats the last repetition's output, whose digest must not
	// change between repetitions. It runs outside the measured window.
	output() string
	// check applies the workload's sanity checks to the last repetition.
	check() error
	// metFrac is the simulated SLO attainment of the last repetition.
	metFrac() float64
	// layers adds the per-layer counters of the last traced repetition.
	layers(r *report, tr *tracer)
}

// spec describes one workload: its default seed, the number S of fresh
// set-ups a run times, and the fewest warm repetitions R a run takes
// however short -seconds is.
type spec struct {
	name    string
	seed    uint64
	setups  int
	minReps int
	build   func(seed uint64) workload
}

// options are one invocation's settings.
type options struct {
	seed     uint64
	seconds  time.Duration
	traced   bool
	traceDir string
}

// repSample is what one repetition measured outside its output.
type repSample struct {
	wall        time.Duration // host time
	scaled      time.Duration // host time over the host's slowdown (timed runs)
	allocBytes  float64
	allocObjs   float64
	gcCycles    float64
	gcCPUFrac   float64
	gcPauseSecs float64
}

// runtimeCounters are the cumulative runtime counters sampled around each
// repetition. Reading them allocates nothing and happens outside the
// timed region.
var runtimeCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

type counterSnap struct {
	samples []metrics.Sample
	pauseNs uint64
}

func newCounterSnap() *counterSnap {
	s := &counterSnap{samples: make([]metrics.Sample, len(runtimeCounters))}
	for i, name := range runtimeCounters {
		s.samples[i].Name = name
	}
	return s
}

// read samples the counters. ReadMemStats goes first because it flushes
// every P's allocation cache into the heap statistics; without the flush
// the allocation counters miss a repetition's last few hundred objects,
// which is all the cosmos replay allocates.
func (s *counterSnap) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseNs = ms.PauseTotalNs
	metrics.Read(s.samples)
}

func (s *counterSnap) value(i int) float64 {
	v := s.samples[i].Value
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return float64(v.Uint64())
}

// runner drives one workload through its set-ups and repetitions and
// applies the correctness gate to every repetition.
type runner struct {
	sp     spec
	w      workload
	opt    options
	r      *report
	digest string // digest of the first repetition's output
	p      *probe
	m      *meter // scales a timed run's set-ups and repetitions; nil when traced

	before, after *counterSnap
	setupSecs     []float64 // scaled in timed runs
}

// measure runs one benchmark invocation and returns its report.
func measure(sp spec, opt options) *report {
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}
	rn := &runner{
		sp: sp, w: sp.build(opt.seed), opt: opt, r: newReport(defs),
		before: newCounterSnap(), after: newCounterSnap(),
	}
	p, err := newProbe()
	if err != nil {
		rn.r.attempted++
		rn.r.fail(err)
		return rn.r
	}
	rn.p = p
	if opt.traced {
		rn.traced()
	} else {
		rn.m = &meter{p: p}
		rn.timed()
	}
	return rn.r
}

// timed is the -trace 0 run: no spans, callbacks or profiler anywhere.
func (rn *runner) timed() {
	if !rn.setups(nil, nil) {
		return
	}
	samples := rn.reps(rn.opt.seconds, rn.sp.minReps, nil, nil)
	runtime.GC()
	live := readLive()
	runtime.KeepAlive(rn.w)
	if len(samples) == 0 {
		return
	}
	rn.r.set("setup_s", median(rn.setupSecs))
	rn.r.set("run_s", median(pick(samples, func(s repSample) float64 { return s.scaled.Seconds() })))
	rn.r.set("alloc_mb", median(pick(samples, func(s repSample) float64 { return s.allocBytes }))/(1<<20))
	rn.r.set("allocs_m", median(pick(samples, func(s repSample) float64 { return s.allocObjs }))/1e6)
	rn.r.set("live_mb", live/(1<<20))
	rn.r.set("met_frac", rn.w.metFrac())
}

// traced is the -trace 1 run: traced set-ups, then a block of untraced
// repetitions (the baseline for trace.overhead_frac and the source of the
// host.* and runtime.* metrics), then a block of traced repetitions. Times
// are not scaled; the host's slowdown is probed before, between and after
// the two blocks, so no probe runs inside a repetition or a CPU profile.
func (rn *runner) traced() {
	if err := os.MkdirAll(rn.opt.traceDir, 0o755); err != nil {
		rn.r.attempted++
		rn.r.fail(err)
		return
	}
	tr := newTracer()
	setupCPU, runCPU := newCPUShares(), newCPUShares()
	if !rn.setups(tr, setupCPU) {
		return
	}
	half := rn.opt.seconds / 2
	minReps := max(1, rn.sp.minReps/2)
	slowdowns := []float64{rn.p.slowdown()}
	plain := rn.reps(half, minReps, nil, nil)
	slowdowns = append(slowdowns, rn.p.slowdown())
	withTrace := rn.reps(half, minReps, tr, runCPU)
	slowdowns = append(slowdowns, rn.p.slowdown())
	if err := tr.write(rn.opt.traceDir); err != nil {
		rn.r.fail(err)
	}
	if len(plain) == 0 || len(withTrace) == 0 {
		return
	}
	r := rn.r
	rn.w.layers(r, tr)
	r.set("runtime.gc_cycles", median(pick(plain, func(s repSample) float64 { return s.gcCycles })))
	r.set("runtime.gc_cpu_frac", median(pick(plain, func(s repSample) float64 { return s.gcCPUFrac })))
	r.set("runtime.gc_pause_ms", 1e3*median(pick(plain, func(s repSample) float64 { return s.gcPauseSecs })))
	for _, pkg := range cpuPackages {
		r.set("cpu."+pkg, runCPU.share(pkg))
		r.set("cpu_setup."+pkg, setupCPU.share(pkg))
	}
	walls := pick(plain, func(s repSample) float64 { return s.wall.Seconds() })
	r.set("host.run_p25_s", stats.Quantile(walls, 0.25))
	r.set("host.run_p75_s", stats.Quantile(walls, 0.75))
	r.set("host.run_reps", float64(len(walls)))
	r.set("host.slowdown", median(slowdowns))
	tracedRun := median(pick(withTrace, func(s repSample) float64 { return s.wall.Seconds() }))
	r.set("trace.overhead_frac", tracedRun/median(walls)-1)
}

// setups runs the S fresh set-ups; a failed set-up ends the run, since no
// repetition has state to reuse. In a timed run the recorded time is
// scaled by the host's slowdown.
func (rn *runner) setups(tr *tracer, cpu *cpuShares) bool {
	m := rn.m
	for i := 0; i < rn.sp.setups; i++ {
		rn.r.attempted++
		runtime.GC()
		var err error
		took := rn.window(cpu, "setup", i, func() {
			m.begin()
			root := tr.enter("setup", i)
			err = rn.w.setup(tr, m)
			tr.end(root)
			m.stop()
		})
		if m != nil {
			took = m.scaled
		}
		rn.setupSecs = append(rn.setupSecs, took.Seconds())
		if err != nil {
			rn.r.fail(fmt.Errorf("set-up %d: %w", i, err))
			return false
		}
	}
	return true
}

// reps runs warm repetitions until at least minReps are done and d has
// elapsed, and returns the samples of those that passed the gate.
func (rn *runner) reps(d time.Duration, minReps int, tr *tracer, cpu *cpuShares) []repSample {
	m := rn.m
	var out []repSample
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < d; n++ {
		rn.r.attempted++
		runtime.GC()
		rn.before.read()
		var err error
		wall := rn.window(cpu, "run", n, func() {
			m.begin()
			root := tr.enter("run", n)
			err = rn.w.rep(tr, m)
			tr.end(root)
			m.stop()
		})
		rn.after.read()
		scaled := wall
		if m != nil {
			wall, scaled = m.wall, m.scaled
		}
		if err == nil {
			err = rn.gate(rn.w.output())
		}
		if err != nil {
			rn.r.fail(fmt.Errorf("repetition %d: %w", n, err))
			continue
		}
		b, a := rn.before, rn.after
		out = append(out, repSample{
			wall:        wall,
			scaled:      scaled,
			allocBytes:  a.value(0) - b.value(0),
			allocObjs:   a.value(1) - b.value(1),
			gcCycles:    a.value(2) - b.value(2),
			gcCPUFrac:   (a.value(3) - b.value(3)) / (float64(runtime.GOMAXPROCS(0)) * wall.Seconds()),
			gcPauseSecs: float64(a.pauseNs-b.pauseNs) / 1e9,
		})
	}
	return out
}

// gate is the correctness gate of one repetition: the workload's sanity
// checks, and an output digest equal to the first repetition's (traced
// and untraced repetitions alike).
func (rn *runner) gate(text string) error {
	if err := rn.w.check(); err != nil {
		return err
	}
	sum := sha256.Sum256([]byte(text))
	d := hex.EncodeToString(sum[:])
	if rn.digest == "" {
		rn.digest = d
		return nil
	}
	if d != rn.digest {
		return fmt.Errorf("output digest %s differs from the first repetition's %s", d[:12], rn.digest[:12])
	}
	return nil
}

// window runs body and returns how long it took. When cpu is set (traced
// runs) body runs under a CPU profile labelled phase=<phase>, saved as
// <traceDir>/cpu-<phase>-<i>.pprof and attributed to cpu; starting,
// stopping and reading the profile stay outside the returned time. One
// profile per body keeps the forced collections between repetitions out
// of the shares.
func (rn *runner) window(cpu *cpuShares, phase string, i int, body func()) time.Duration {
	if cpu == nil {
		t0 := time.Now()
		body()
		return time.Since(t0)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		rn.r.fail(err)
		return rn.window(nil, phase, i, body)
	}
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { body() })
	took := time.Since(t0)
	pprof.StopCPUProfile()
	if err := cpu.add(buf.Bytes()); err != nil {
		rn.r.fail(err)
	}
	path := filepath.Join(rn.opt.traceDir, fmt.Sprintf("cpu-%s-%d.pprof", phase, i))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		rn.r.fail(err)
	}
	return took
}

// readLive returns the bytes of live heap objects marked by the last GC.
func readLive() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func pick(samples []repSample, f func(repSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// median of xs, 0 when empty.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
