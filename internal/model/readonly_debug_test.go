//go:build invariantdebug

package model

// Runs only under `go test -tags invariantdebug` (CI does): the read-only
// cells contract must be actively enforced, not just documented — mutating
// a cell slice returned by samplesAt must panic with an invariant
// Violation on the next query.

import (
	"errors"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
)

func TestMutatedCellPanicsInDebugBuild(t *testing.T) {
	p := noisyProfile(t)
	c := buildTestCPA(t, p, []int{2, 5, 15, 40})
	st := State{FracDone: []float64{0.5, 0.25}}
	vs := c.samplesAt(c.Progress(st), 15)
	if len(vs) == 0 {
		t.Fatal("expected a non-empty cell")
	}
	vs[0] += time.Second // violate the contract
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mutated cell did not panic in debug build")
		}
		err, ok := r.(error)
		var v *invariant.Violation
		if !ok || !errors.As(err, &v) {
			t.Fatalf("panic value %v is not an invariant.Violation", r)
		}
	}()
	Remaining(c, st, 15, 0.9)
}
