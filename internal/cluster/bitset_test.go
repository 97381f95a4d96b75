package cluster

import (
	"math/rand/v2"
	"testing"
)

// TestBitsetNextMatchesScan diffs every next(i) against a scan of get over
// sets grown past one summary word (4096 bits), so that next's skip over
// empty summary words is exercised, which the engine's job-id sets reach
// only on fleet-sized replays.
func TestBitsetNextMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var b bitset
	for round, n := range []int{1, 63, 64, 65, 4095, 4096, 4097, 9000} {
		b.init(0, false)
		b.grow(n)
		for i := 0; i < n; i++ {
			if get := b.get(i); get {
				t.Fatalf("round %d: bit %d set after grow", round, i)
			}
		}
		// Sparse sets, so whole words and summary words stay empty.
		for k := 0; k < 1+n/300; k++ {
			b.set(rng.IntN(n))
		}
		if n > 1 {
			b.clear(rng.IntN(n))
		}
		want := -1
		for i := n; i >= 0; i-- {
			if i < n && b.get(i) {
				want = i
			}
			if got := b.next(i); got != want {
				t.Fatalf("round %d (%d bits): next(%d) = %d, want %d", round, n, i, got, want)
			}
		}
	}
}
