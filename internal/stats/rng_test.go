package stats

import (
	"fmt"
	"testing"
)

// TestDeriveSeedIntMatchesDeriveSeed pins the bit-identity contract between
// the allocation-free integer derivation and the general string form: task
// placements hashed with DeriveSeedInt must never shift from runs that used
// DeriveSeed(master, fmt.Sprint(n)).
func TestDeriveSeedIntMatchesDeriveSeed(t *testing.T) {
	masters := []uint64{0, 1, 42, 1<<32 | 7, ^uint64(0)}
	ns := []int{0, 1, 9, 10, 99, 12345, 1 << 20, 1<<31 - 1}
	for _, m := range masters {
		for _, n := range ns {
			got := DeriveSeedInt(m, n)
			want := DeriveSeed(m, fmt.Sprint(n))
			if got != want {
				t.Errorf("DeriveSeedInt(%d, %d) = %d, want DeriveSeed = %d", m, n, got, want)
			}
		}
	}
}

// TestDeriveSeedLabelIntMatchesDeriveSeed pins the same contract for the
// labelled form the cluster seeds every job with, and C(p, a) builds every
// simulation: job seeds must never shift from runs that used
// DeriveSeed(master, "job", fmt.Sprint(id)), nor simulation seeds from
// DeriveSeed(master, "cpa", fmt.Sprint(alloc), fmt.Sprint(run)).
func TestDeriveSeedLabelIntMatchesDeriveSeed(t *testing.T) {
	masters := []uint64{0, 1, 42, 1<<32 | 7, ^uint64(0)}
	labels := []string{"", "job", "a longer label"}
	ns := []int{0, 1, 9, 10, 99, 12345, 1 << 20, 1<<31 - 1}
	for _, m := range masters {
		for _, l := range labels {
			if got, want := DeriveSeedLabelInt(m, l), DeriveSeed(m, l); got != want {
				t.Errorf("DeriveSeedLabelInt(%d, %q) = %d, want DeriveSeed = %d", m, l, got, want)
			}
			for _, n := range ns {
				got := DeriveSeedLabelInt(m, l, n)
				want := DeriveSeed(m, l, fmt.Sprint(n))
				if got != want {
					t.Errorf("DeriveSeedLabelInt(%d, %q, %d) = %d, want DeriveSeed = %d", m, l, n, got, want)
				}
				for _, n2 := range ns[:4] {
					got := DeriveSeedLabelInt(m, l, n, n2)
					want := DeriveSeed(m, l, fmt.Sprint(n), fmt.Sprint(n2))
					if got != want {
						t.Errorf("DeriveSeedLabelInt(%d, %q, %d, %d) = %d, want DeriveSeed = %d", m, l, n, n2, got, want)
					}
				}
			}
		}
	}
}

func TestDeriveSeedIntAllocates(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() {
		_ = DeriveSeedInt(12345, 678)
		_ = DeriveSeedLabelInt(12345, "job", 678)
		_ = DeriveSeedLabelInt(12345, "cpa", 100, 9)
	}); avg != 0 {
		t.Errorf("DeriveSeedInt or DeriveSeedLabelInt allocates %v per call, want 0", avg)
	}
}

// TestReseedSourceMatchesFresh pins the reuse primitive: a reseeded source
// must continue with the exact stream a fresh one would produce.
func TestReseedSourceMatchesFresh(t *testing.T) {
	reused := NewSource(1)
	for i := 0; i < 10; i++ {
		_ = reused.Uint64() // move off the initial state
	}
	ReseedSource(reused, 77)
	fresh := NewSource(77)
	for i := 0; i < 100; i++ {
		if a, b := reused.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %d != fresh %d", i, a, b)
		}
	}
}
