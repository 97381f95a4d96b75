package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsRejected: a drift factor that is not positive and finite
// reaches the cluster, which rejects it naming the job; a -drift-at without
// a -drift-factor, a negative -parallelism and a negative -deadline are
// refused before any run.
// Each makes run return an error, so the command exits 1, and print no
// timeline.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-drift-factor", "-1", "-drift-at", "10m"}, `job "jobB" drift 0 has factor -1`},
		{[]string{"-drift-factor", "NaN", "-drift-at", "10m"}, `job "jobB" drift 0 has factor NaN`},
		{[]string{"-drift-factor", "+Inf", "-drift-at", "10m"}, `job "jobB" drift 0 has factor +Inf`},
		{[]string{"-drift-at", "10m"}, "-drift-at 10m0s needs a -drift-factor"},
		{[]string{"-drift-factor", "0", "-drift-at", "10m"}, "-drift-at 10m0s needs a -drift-factor"},
		{[]string{"-parallelism", "-1"}, "-parallelism -1"},
		{[]string{"-deadline", "-5m"}, "-deadline -5m0s"},
		{[]string{"-drift-factor", "1e300", "-drift-at", "1m"}, "(jobB at drift factor 1e+300)"},
		{[]string{"-period", "1ns"}, "-period 1ns"},
		{[]string{"-period", "-1m"}, "-period -1m0s"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-job", "B"}, tc.args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: run error = %v, want one containing %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: run printed a timeline:\n%s", tc.args, &stdout)
		}
	}
}
