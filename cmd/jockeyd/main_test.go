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
