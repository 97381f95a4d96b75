//go:build invariantdebug

package model

// Runs only under `go test -tags invariantdebug` (CI does): the read-only
// cells contract must be actively enforced, not just documented — mutating
// a cell slice returned by samplesAt must panic with an invariant
// Violation on the next query.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/invariant"
	"github.com/jockeysim/jockey/internal/progress"
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

// TestRetiredTableReadPanics: a table given back to its Builder stays
// retired for good in debug builds, even after a later build reuses its
// arrays. Reading it, or retiring it again, panics with a message naming
// its grid.
func TestRetiredTableReadPanics(t *testing.T) {
	p := noisyProfile(t)
	ind := progress.NewTotalWorkWithQ(p)
	cfg := CPAConfig{Allocs: []int{2, 5, 15, 40}, RunsPerAlloc: 6, Seed: 42}
	b := new(Builder)
	c, err := b.BuildCPA(p, ind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Retire(c)
	if _, err := b.BuildCPA(p, ind, cfg); err != nil {
		t.Fatal(err)
	}
	st := State{FracDone: []float64{0.5, 0.25}}
	for _, tc := range []struct {
		name string
		do   func()
	}{
		{"read", func() { c.Samples(st, 15) }},
		{"second retire", func() { b.Retire(c) }},
	} {
		v := violation(t, tc.do)
		if v == nil {
			t.Errorf("%s of a retired table did not panic", tc.name)
		} else if !strings.Contains(v.Error(), "[2 5 15 40]") {
			t.Errorf("%s of a retired table: %q does not name the grid", tc.name, v)
		}
	}
}

// violation runs f and returns the invariant.Violation it panics with, or
// nil if it returns.
func violation(t *testing.T, f func()) (v *invariant.Violation) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, ok := r.(error)
		if !ok || !errors.As(err, &v) {
			t.Fatalf("panic value %v is not an invariant.Violation", r)
		}
	}()
	f()
	return nil
}
