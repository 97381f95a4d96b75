package eventq

import (
	"math"
	"testing"
)

// Regimes names the storage regimes a differential test can pin: "heap"
// never promotes, "calendar" promotes on the first push after every Reset,
// and "auto" is the production threshold.
var Regimes = []string{"heap", "calendar", "auto"}

var defaultPromoteLen = calendarPromoteLen

// PinRegime sets the promotion threshold for every queue in the test binary
// until tb's cleanup restores the default. Because the threshold is shared,
// a test that pins a regime must not overlap another that does: pin in a
// sequential test or subtest, and run any parallel subtests beneath it.
func PinRegime(tb testing.TB, regime string) {
	tb.Helper()
	switch regime {
	case "heap":
		calendarPromoteLen = math.MaxInt
	case "calendar":
		calendarPromoteLen = 1
	case "auto":
		calendarPromoteLen = defaultPromoteLen
	default:
		tb.Fatalf("eventq: unknown regime %q", regime)
	}
	tb.Cleanup(func() { calendarPromoteLen = defaultPromoteLen })
}
