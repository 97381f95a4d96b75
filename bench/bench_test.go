package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildCmd builds one of the repository's commands into dir.
func buildCmd(t *testing.T, pkg, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, "github.com/jockeysim/jockey/"+pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// ciSmokeFlags are the jockeyd flags of the CI smoke replay.
var ciSmokeFlags = jockeydFlags{
	machines: 200, slots: 5, budget: 1000, arrivals: 400, meanInterarrival: 30 * time.Second,
}

// TestFleetMatchesJockeyd pins the fleet workloads to the jockeyd replay
// they stand for: the harness path (shared model cache, reused engine)
// renders byte-identically to the CLI given the same flags.
func TestFleetMatchesJockeyd(t *testing.T) {
	bin := buildCmd(t, "cmd/jockeyd", t.TempDir())
	for _, tc := range []struct {
		name  string
		flags jockeydFlags
		args  []string
	}{
		{"ci-smoke", ciSmokeFlags, nil},
		{"fleet-guarded", fleetGuardedFlags, []string{
			"-load", "3", "-guarded", "-drift-every", "3",
			"-outage-at", "1h", "-outage-machines", "40", "-outage-duration", "1h",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-seed", "11", "-machines", "200", "-slots", "5",
				"-budget", "1000", "-arrivals", "400", "-mean-interarrival", "30s"}, tc.args...)
			want, err := exec.Command(bin, args...).Output()
			if err != nil {
				t.Fatalf("jockeyd %v: %v", args, err)
			}
			w := newFleet(tc.flags, 0)(11)
			if err := w.setup(nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := w.rep(nil, nil); err != nil {
				t.Fatal(err)
			}
			if got := w.output(); got != string(want) {
				t.Errorf("harness replay differs from jockeyd %v\nharness:\n%s\njockeyd:\n%s", args, got, want)
			}
		})
	}
}

// TestPaperMatchesExperiments pins the paper workload's artifact calls to
// cmd/experiments -quick.
func TestPaperMatchesExperiments(t *testing.T) {
	bin := buildCmd(t, "cmd/experiments", t.TempDir())
	want, err := exec.Command(bin, "-quick", "-run", "robustness,ext2", "-parallel", "1").Output()
	if err != nil {
		t.Fatalf("experiments: %v", err)
	}
	var list []artifact
	for _, a := range artifacts {
		if a.name == "robustness" || a.name == "ext2" {
			list = append(list, a)
		}
	}
	out, err := runArtifacts(newPaperEnv(1), list, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.stdout.String(); got != string(want) {
		t.Errorf("harness artifacts differ from experiments -quick\nharness:\n%s\nexperiments:\n%s", got, want)
	}
}

var (
	lineRE = regexp.MustCompile(`^([A-Za-z0-9][A-Za-z0-9_.-]{0,63}) (\S+) ([A-Za-z0-9_/%.-]{1,16})$`)
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
)

// TestOutputFormat runs a small fleet workload through both run modes and
// checks the printed lines: "name value unit" in definition order, then
// one JSON object with exactly the summary keys. The traced run must also
// write its spans and report CPU shares that sum to one per phase.
func TestOutputFormat(t *testing.T) {
	sp := spec{name: "smoke", seed: 11, setups: 1, minReps: 2, build: newFleet(ciSmokeFlags, 0)}
	for _, traced := range []bool{false, true} {
		dir := t.TempDir()
		r := measure(sp, options{seed: sp.seed, traced: traced, traceDir: dir})
		var buf bytes.Buffer
		if err := r.write(&buf); err != nil {
			t.Fatal(err)
		}
		if !r.correct() {
			t.Fatalf("traced=%t: run failed: %v", traced, r.errs)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		values := checkLines(t, r.defs, lines)
		if !traced {
			continue
		}
		for _, phase := range []string{"cpu.", "cpu_setup."} {
			sum, repo := 0.0, 0.0
			for _, pkg := range cpuPackages {
				sum += values[phase+pkg]
				if !strings.HasPrefix(pkg, "runtime") && pkg != "other" {
					repo += values[phase+pkg]
				}
			}
			if math.Abs(sum-1) > 0.01 || repo <= 0 {
				t.Errorf("%s* shares sum to %v with %v in repository layers", phase, sum, repo)
			}
		}
		checkSpans(t, filepath.Join(dir, "spans.jsonl"))
	}
}

func checkLines(t *testing.T, defs []metricDef, lines []string) map[string]float64 {
	t.Helper()
	if len(lines) != len(defs)+1 {
		t.Fatalf("got %d lines, want %d metrics and a summary", len(lines), len(defs))
	}
	values := map[string]float64{}
	for i, d := range defs {
		m := lineRE.FindStringSubmatch(lines[i])
		if m == nil || m[1] != d.name || m[3] != d.unit {
			t.Fatalf("line %d = %q, want %q with unit %q", i, lines[i], d.name, d.unit)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		values[d.name] = v
	}
	var summary struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&summary); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if summary.Correct == nil || !*summary.Correct || summary.Attempted == nil || *summary.Attempted < 1 ||
		summary.Failed == nil || *summary.Failed != 0 || len(summary.Metrics) != len(defs) {
		t.Fatalf("summary line %s", lines[len(lines)-1])
	}
	for _, d := range defs {
		m, ok := summary.Metrics[d.name]
		if !ok || m.Value == nil || *m.Value != values[d.name] || m.Unit != d.unit {
			t.Errorf("summary metric %s = %+v, want value %v unit %s", d.name, m, values[d.name], d.unit)
		}
	}
	return values
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span %d: %v", n, err)
		}
		n++
		if s.ID != n || s.Parent >= s.ID || s.EndNs < s.StartNs || s.Name == "" {
			t.Errorf("bad span %+v", s)
		}
	}
	if n == 0 {
		t.Error("spans.jsonl is empty")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness in step: the same
// workloads and the same metrics, with the same units, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(specNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, specNames())
	}
	for _, tc := range []struct {
		key  string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s lists %d metrics, harness %d", tc.key, len(tc.got), len(tc.want))
			continue
		}
		for i, d := range tc.want {
			if tc.got[i].Name != d.name || tc.got[i].Unit != d.unit || !nameRE.MatchString(d.name) {
				t.Errorf("%s[%d] = %+v, harness %+v", tc.key, i, tc.got[i], d)
			}
		}
	}
}

// TestProbeAllocatesNothing guards the allocation metrics: paper probes
// between artifacts, inside the window its allocations are counted over.
func TestProbeAllocatesNothing(t *testing.T) {
	p, err := newProbe()
	if err != nil {
		t.Fatal(err)
	}
	m := &meter{p: p}
	if n := testing.AllocsPerRun(3, func() { m.begin(); m.split(); m.stop() }); n != 0 {
		t.Errorf("a metered unit allocates %v objects", n)
	}
	if m.wall <= 0 || m.scaled <= 0 {
		t.Errorf("meter read wall %v, scaled %v", m.wall, m.scaled)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"github.com/jockeysim/jockey/internal/cluster.(*Cluster).handleTaskEnd"}, "cluster"},
		{[]string{"github.com/jockeysim/jockey/internal/grid.Run[go.shape.struct { a.b/c.d int }].func1"}, "grid"},
		{[]string{"github.com/jockeysim/jockey/internal/core.New"}, "other"},
		{[]string{"sort.Float64s"}, "other"},
		{[]string{"runtime.memmove", "github.com/jockeysim/jockey/internal/sim.(*Runner).run"}, "runtime_other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "runtime.gcAssistAlloc"}, "runtime_gc"},
		{[]string{"runtime._GC"}, "runtime_gc"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
