//go:build invariantdebug

package dag

// Runs only under `go test -tags invariantdebug` (CI does): the ready ring
// has one slot per task and never grows, which is sound only while a task
// is queued at most once at a time, so debug builds assert at MarkReady
// that the ring has room.

import (
	"errors"
	"testing"

	"github.com/jockeysim/jockey/internal/invariant"
)

func TestMarkReadyIntoFullRingPanicsInDebugBuild(t *testing.T) {
	var tr Tracker
	tr.Init(NewBuilder("full").Stage("s", 3).MustBuild())
	tr.Seed(0) // every task is queued: the ring is full
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("queueing a task twice did not panic in a debug build")
		}
		err, ok := r.(error)
		var v *invariant.Violation
		if !ok || !errors.As(err, &v) {
			t.Fatalf("panic value %v is not an invariant.Violation", r)
		}
	}()
	tr.MarkReady(0, 0, 1)
}
