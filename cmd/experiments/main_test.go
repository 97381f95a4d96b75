package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/jockeysim/jockey/internal/experiments"
)

// TestUsageListsRegistry keeps the usage comment's -run list in step with
// the artifact registry the command runs.
func TestUsageListsRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := "\n// " + strings.Join(experiments.RunNames(), ",") + "\n"
	if !strings.Contains(string(src), want) {
		t.Errorf("usage comment does not list the registry's -run names; want the line%s", want)
	}
}

// TestNegativeWorkerCountsRejected: a negative -parallelism or -parallel
// makes run return an error naming the flag and its value, so the command
// exits 1, before any artifact runs.
func TestNegativeWorkerCountsRejected(t *testing.T) {
	for _, args := range [][]string{{"-parallelism", "-1"}, {"-parallel", "-4"}} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-quick", "-run", "table2"}, args...), &stdout, &stderr)
		if want := args[0] + " " + args[1]; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: run error = %v, want one naming %q", args, err, want)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("%v: run rendered artifacts:\n%s%s", args, &stdout, &stderr)
		}
	}
}
