package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestJockeyGolden pins one guarded, drifting run of job B against a
// committed golden: its stdout, the counterfactual flight record and the
// full task trace (every attempt's queued, dispatched, started and ended
// times). The golden holds the rendered stdout plus one SHA-256 per output,
// so a refactor of the simulator, engine or control layers must leave all
// three unchanged across commits. A mismatch prints the new golden and
// every output whose digest changed; a deliberate behaviour change replaces
// the golden with that text.
func TestJockeyGolden(t *testing.T) {
	const path = "testdata/jockey.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-job", "B", "-guard", "-drift-factor", "2", "-drift-at", "10m",
		"-flight-level", "counterfactual", "-flight", filepath.Join(dir, "flight.json"),
		"-save-trace", filepath.Join(dir, "trace.json")}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, &stderr)
	}
	type output struct {
		name string
		data []byte
	}
	outputs := []output{{"job-b-guard.out", stdout.Bytes()}}
	for _, name := range []string{"flight.json", "trace.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, output{"job-b-guard." + name, data})
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
}
