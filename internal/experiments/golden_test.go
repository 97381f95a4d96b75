package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/jockeysim/jockey/internal/flight"
)

// TestRobustnessFlightGolden pins the CI smoke's robustness grid: the
// registry's robustness artifact at the quick run counts (job B, one seed
// per cell) with counterfactual flight recording on master seed 1, what
// `experiments -quick -run robustness -flight-level counterfactual` runs,
// against a committed golden: the rendered table plus one SHA-256 per flight
// record, in the format `sha256sum` prints for the CLI's
// flight-robust-<scenario>-<policy>-<seed>.json files. Its ticks cover every
// decision mechanism (model, hysteresis, dead zone, urgency boost, guard
// panic), so unlike the parallelism goldens, which compare runs of one
// build, it shows that a refactor of the control or flight layers left
// their output unchanged across commits. A deliberate behaviour change
// replaces the golden with the output this test prints on a mismatch.
func TestRobustnessFlightGolden(t *testing.T) {
	const path = "testdata/robustness_quick.golden"
	i := slices.IndexFunc(Artifacts, func(a Artifact) bool { return a.Names[0] == "robustness" })
	files, err := Artifacts[i].Run(NewEnv(1), Options{Quick: true, Flight: flight.LevelCounterfactual})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString(strings.TrimRight(files[0].Text, "\n"))
	got.WriteString("\n\n")
	for _, f := range files[1:] {
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(f.Text)), f.Name)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("robustness grid differs from %s; this build renders:\n%s", path, got.String())
	}
}

// TestQuickArtifactsGolden pins every file of every registry artifact at
// the quick run counts (what `experiments -quick -out DIR` writes) against
// a committed golden of one SHA-256 per file, in run order and under the
// CLI's file names, run on the tests' shared Env. E1's decision costs are
// wall-clock measurements, so its table is re-rendered with them zeroed,
// as the benchmark's paper workload zeroes them. A mismatch prints the new
// digest list and the full text of every file whose digest changed; a
// deliberate behaviour change replaces the golden with that list.
func TestQuickArtifactsGolden(t *testing.T) {
	t.Parallel()
	const path = "testdata/quick_artifacts.golden"
	var files []File
	for _, a := range Artifacts {
		fs, err := a.Run(sharedEnv, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", a.Names[0], err)
		}
		if a.Names[0] == "ext1" {
			fs[0].Text = zeroWallClock(t, fs[0].Text)
		}
		files = append(files, fs...)
	}

	var got bytes.Buffer
	for _, f := range files {
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(f.Text)), f.Name)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	t.Errorf("quick artifacts differ from %s; this build renders:\n%s", path, got.String())
	for i, line := range strings.SplitAfter(got.String(), "\n") {
		if i < len(files) && !strings.Contains(string(want), line) {
			t.Logf("%s:\n%s", files[i].Name, files[i].Text)
		}
	}
}

// zeroWallClock re-renders E1's table with its last two columns, the
// wall-clock µs per decision, set to zero: the text ExtensionResult.Render
// returns for rows whose decision costs are zero. Column bounds come from
// the separator line; renderTable pads by runes, so cells are cut by rune.
func zeroWallClock(t *testing.T, text string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	sep := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "---") })
	if sep < 1 {
		t.Fatalf("E1 table has no header:\n%s", text)
	}
	var widths []int
	for _, dashes := range strings.Fields(lines[sep]) {
		widths = append(widths, len(dashes))
	}
	cells := func(line string) []string {
		rs := []rune(line)
		out := make([]string, len(widths))
		at := 0
		for i, w := range widths {
			out[i] = strings.TrimSpace(string(rs[min(at, len(rs)):min(at+w, len(rs))]))
			at += w + 2
		}
		return out
	}
	var rows [][]string
	for _, l := range lines[sep+1:] {
		row := cells(l)
		row[len(row)-2], row[len(row)-1] = "0", "0"
		rows = append(rows, row)
	}
	return renderTable(strings.Join(lines[:sep-1], "\n"), cells(lines[sep-1]), rows)
}
