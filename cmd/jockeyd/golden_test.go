package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFleetGolden pins two jockeyd replays against a committed golden: the
// CI fleet smoke's flags and the guarded smoke's flags (3x overload, drift,
// a rack outage), each with -v. Per replay the golden holds the table's
// summary line plus one SHA-256 of the stdout table and one of the -v epoch
// stream, so a refactor of the engine, arbiter or control layers must
// leave both outputs unchanged across commits. A mismatch prints the new
// golden and both full outputs of every replay that changed; a deliberate
// behaviour change replaces the golden with that text.
func TestFleetGolden(t *testing.T) {
	const path = "testdata/fleet.golden"
	smoke := []string{"-seed", "11", "-machines", "200", "-slots", "5", "-budget", "1000",
		"-arrivals", "400", "-mean-interarrival", "30s", "-v"}
	cases := []struct {
		name string
		args []string
	}{
		{"fleet-smoke", smoke},
		{"guarded-smoke", append(smoke[:len(smoke):len(smoke)], "-load", "3", "-guarded", "-drift-every", "3",
			"-outage-at", "1h", "-outage-machines", "40", "-outage-duration", "1h")},
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var changed []string
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		table := strings.TrimRight(stdout.String(), "\n")
		block := fmt.Sprintf("%s\n%x  %s.out\n%x  %s.epochs\n", table[strings.LastIndexByte(table, '\n')+1:],
			sha256.Sum256(stdout.Bytes()), tc.name, sha256.Sum256(stderr.Bytes()), tc.name)
		got.WriteString(block)
		if !bytes.Contains(want, []byte(block)) {
			changed = append(changed, fmt.Sprintf("%s stdout:\n%s\n%s -v stream:\n%s", tc.name, &stdout, tc.name, &stderr))
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fleet replays differ from %s; this build renders:\n%s", path, got.String())
		for _, c := range changed {
			t.Log(c)
		}
	}
}
