package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestJockeyGolden pins runs of job B against committed goldens:
//   - a guarded, drifting run: its stdout, the counterfactual flight record
//     and the full task trace (every attempt's queued, dispatched, started
//     and ended times);
//   - a run driven by the §4.4 online predictor: its stdout and task trace.
//
// Each golden holds the rendered stdout plus one SHA-256 per output, so a
// refactor of the simulator, engine, model or control layers must leave
// them unchanged across commits. A mismatch prints the new golden and every
// output whose digest changed; a deliberate behaviour change replaces the
// golden with that text.
func TestJockeyGolden(t *testing.T) {
	cases := []struct {
		golden string   // committed golden under testdata/
		name   string   // output name prefix
		args   []string // flags before the -flight and -save-trace outputs
		flight bool     // also write and digest the -flight record
	}{
		{"jockey.golden", "job-b-guard", []string{"-job", "B", "-guard", "-drift-factor", "2", "-drift-at", "10m",
			"-flight-level", "counterfactual"}, true},
		{"jockey-online.golden", "job-b-online", []string{"-job", "B", "-online"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", c.golden)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			args := append([]string{}, c.args...)
			files := []string{"trace.json"}
			if c.flight {
				args = append(args, "-flight", filepath.Join(dir, "flight.json"))
				files = []string{"flight.json", "trace.json"}
			}
			args = append(args, "-save-trace", filepath.Join(dir, "trace.json"))
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%v\n%s", err, &stderr)
			}
			type output struct {
				name string
				data []byte
			}
			outputs := []output{{c.name + ".out", stdout.Bytes()}}
			for _, name := range files {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				outputs = append(outputs, output{c.name + "." + name, data})
			}
			var got bytes.Buffer
			got.Write(stdout.Bytes())
			for _, o := range outputs {
				fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(o.data), o.name)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			t.Errorf("jockey run differs from %s; this build renders:\n%s", path, got.String())
			for _, o := range outputs[1:] {
				if !bytes.Contains(want, fmt.Appendf(nil, "%x  %s\n", sha256.Sum256(o.data), o.name)) {
					t.Logf("%s:\n%s", o.name, o.data)
				}
			}
		})
	}
}
