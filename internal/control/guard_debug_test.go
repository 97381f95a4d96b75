//go:build invariantdebug

package control

// Runs only under `go test -tags invariantdebug` (CI does): recentLive
// finds the recency window by binary search, which is sound only while
// live events arrive in non-decreasing Ended order, so debug builds
// assert that order at ObserveTask.

import (
	"errors"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/trace"
)

func TestObserveTaskOutOfOrderPanicsInDebugBuild(t *testing.T) {
	g := guardFixture(t, time.Hour, nil)
	g.ObserveTask(trace.TaskEvent{Task: 0, Ended: 2 * time.Minute})
	g.ObserveTask(trace.TaskEvent{Task: 1, Ended: 2 * time.Minute}) // a tie is in order
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("an attempt ending before its predecessor did not panic in a debug build")
		}
		err, ok := r.(error)
		var v *invariant.Violation
		if !ok || !errors.As(err, &v) {
			t.Fatalf("panic value %v is not an invariant.Violation", r)
		}
	}()
	g.ObserveTask(trace.TaskEvent{Task: 2, Ended: time.Minute})
}
