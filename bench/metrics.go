package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The slices below fix the order in
// which metrics print; BENCHMARK.json lists the same names in the same
// order (bench_test.go keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd is what a timed run (-trace 0) reports for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MiB"},
	{"allocs_m", "millions"},
	{"live_mb", "MiB"},
	{"met_frac", "fraction"},
}

// cpuPackages are the layers CPU samples are attributed to, by the
// package of the sampled leaf function (see pprof.go).
var cpuPackages = []string{
	"cluster", "eventq", "sim", "model", "control", "fleet", "stats", "trace",
	"progress", "profile", "experiments", "grid", "runtime_gc", "runtime_other", "other",
}

// perLayer is what a traced run (-trace 1) reports for every workload. A
// metric whose layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"workload.ground_s", "s"},
		{"cluster.train_s", "s"},
		{"model.build_s", "s"},
		{"model.builds", "count"},
	}
	for _, a := range artifacts {
		defs = append(defs, metricDef{"experiments." + a.name + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"control.table_decision_us", "us"},
		metricDef{"control.online_decision_us", "us"},
		metricDef{"fleet.epochs", "count"},
		metricDef{"fleet.epoch_ms_p50", "ms"},
		metricDef{"fleet.epoch_ms_p95", "ms"},
		metricDef{"fleet.bidders_mean", "count"},
		metricDef{"fleet.heapops_mean", "count"},
		metricDef{"fleet.active_max", "count"},
		metricDef{"fleet.admitted_frac", "fraction"},
		metricDef{"fleet.deferrals", "count"},
		metricDef{"fleet.admit_wait_p50_s", "sim_s"},
		metricDef{"fleet.model_shapes", "count"},
	)
	for _, m := range missMechanisms {
		defs = append(defs, metricDef{"fleet.miss." + m, "count"})
	}
	defs = append(defs,
		metricDef{"control.guard_panics", "count"},
		metricDef{"control.guard_fallback_jobs", "count"},
		metricDef{"control.latched_max", "count"},
		metricDef{"cluster.reset_s", "s"},
		metricDef{"cluster.submit_s", "s"},
		metricDef{"cluster.run_s", "s"},
		metricDef{"cluster.task_attempts", "count"},
		metricDef{"cluster.attempts_per_s", "1/s"},
		metricDef{"cluster.evictions", "count"},
		metricDef{"cluster.utilization", "fraction"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_frac", "fraction"},
		metricDef{"runtime.gc_pause_ms", "ms"},
	)
	for _, phase := range []string{"cpu.", "cpu_setup."} {
		for _, pkg := range cpuPackages {
			defs = append(defs, metricDef{phase + pkg, "fraction"})
		}
	}
	return append(defs,
		metricDef{"host.run_p25_s", "s"},
		metricDef{"host.run_p75_s", "s"},
		metricDef{"host.run_reps", "count"},
		metricDef{"host.slowdown", "ratio"},
		metricDef{"trace.overhead_frac", "fraction"},
	)
}

// missMechanisms are the fleet's miss attributions (fleet.JobRecord).
var missMechanisms = []string{"admission", "arbitration", "guard", "model"}

// report is one run's outcome: the metric values by name plus the
// attempt/failure tally of the correctness gate.
type report struct {
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	errs      []string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: make(map[string]float64, len(defs))}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records one failed set-up or repetition.
func (r *report) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err.Error())
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// write prints every metric as "name value unit", in definition order,
// followed by the one-line JSON summary. A value that is not finite is a
// harness bug; it is reported as a failure rather than as invalid JSON.
func (r *report) write(w io.Writer) error {
	for _, d := range r.defs {
		if v := r.values[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(fmt.Errorf("metric %s is %v", d.name, v))
			r.values[d.name] = 0
		}
	}
	var b strings.Builder
	for _, d := range r.defs {
		fmt.Fprintf(&b, "%s %s %s\n", d.name, formatFloat(r.values[d.name]), d.unit)
	}
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct(), r.attempted, r.failed)
	for i, d := range r.defs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.name, formatFloat(r.values[d.name]), d.unit)
	}
	b.WriteString("}}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat prints a value with every digit it has (shortest exact form).
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
