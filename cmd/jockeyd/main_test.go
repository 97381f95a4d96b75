package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCapacityOverflowRejected: a cluster whose machines × slots overflows
// the engine's int32 slot ids makes run return the cluster's error, naming
// both sizes, and print no table.
func TestCapacityOverflowRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-machines", "3", "-slots", "4611686018427387903", "-budget", "10", "-arrivals", "3"},
		&stdout, &stderr)
	if want := "3 machines × 4611686018427387903 slots"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run error = %v, want one naming %q", err, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("run printed a table for a rejected cluster:\n%s", &stdout)
	}
}

// TestNegativeParallelismRejected: a negative -parallelism makes run return
// an error naming the flag and its value, so the command exits 1, and print
// no table.
func TestNegativeParallelismRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-parallelism", "-2", "-arrivals", "3"}, &stdout, &stderr)
	if want := "-parallelism -2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run error = %v, want one naming %q", err, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("run printed a table for a rejected flag:\n%s", &stdout)
	}
}
