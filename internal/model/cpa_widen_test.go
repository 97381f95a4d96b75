package model

import (
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/progress"
)

// widenCPA hand-builds a single-allocation table with samples only in the
// listed buckets, so each widening boundary can be exercised precisely.
// Bucket b holds the single value (b+1) seconds, making the returned
// samples identify which cell satisfied the query.
func widenCPA(t *testing.T, filled ...int) *CPA {
	t.Helper()
	cells := make([][]time.Duration, buckets+1)
	for _, b := range filled {
		cells[b] = []time.Duration{time.Duration(b+1) * time.Second}
	}
	return cpaFromCells(progress.NewTotalWork(detProfile(t)), []int{4}, [][][]time.Duration{cells})
}

func TestSamplesAtWidening(t *testing.T) {
	cases := []struct {
		name   string
		filled []int
		p      float64
		want   time.Duration // 0 means "no samples anywhere"
	}{
		{name: "exact hit, no widening", filled: []int{55}, p: 0.555, want: 56 * time.Second},
		{name: "all cells empty", filled: nil, p: 0.5, want: 0},
		{name: "p=0 hits bucket 0", filled: []int{0}, p: 0, want: 1 * time.Second},
		{name: "p=0 widens upward", filled: []int{30}, p: 0, want: 31 * time.Second},
		{name: "p=1 hits the terminal bucket", filled: []int{buckets}, p: 1, want: (buckets + 1) * time.Second},
		{name: "p=1 widens downward", filled: []int{70}, p: 1, want: 71 * time.Second},
		{name: "widens down to bucket 0", filled: []int{0}, p: 0.555, want: 1 * time.Second},
		{name: "p beyond 1 clamps then widens", filled: []int{20}, p: 3.7, want: 21 * time.Second},
		{name: "negative p clamps to bucket 0", filled: []int{0, buckets}, p: -0.4, want: 1 * time.Second},
		{name: "tie prefers the lower (pessimistic) bucket", filled: []int{45, 65}, p: 0.555, want: 46 * time.Second},
		{name: "nearest non-empty wins over farther lower", filled: []int{10, 60}, p: 0.555, want: 61 * time.Second},
		{name: "progress beyond all samples widens to the last populated cell",
			filled: []int{20}, p: 0.955, want: 21 * time.Second},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			c := widenCPA(t, cse.filled...)
			got := c.samplesAt(cse.p, 4)
			if cse.want == 0 {
				if got != nil {
					t.Fatalf("samplesAt(%v) = %v, want nil", cse.p, got)
				}
				return
			}
			if len(got) != 1 || got[0] != cse.want {
				t.Fatalf("samplesAt(%v) = %v, want [%v]", cse.p, got, cse.want)
			}
		})
	}
}

// TestSamplesAtEmptyTableQuantiles: the public entry points must degrade
// gracefully (zero remaining, bare elapsed utility) when the whole table is
// empty rather than panic or return junk.
func TestSamplesAtEmptyTableQuantiles(t *testing.T) {
	c := widenCPA(t)
	st := State{Elapsed: time.Minute, FracDone: []float64{0.5, 0.5}}
	if got := Remaining(c, st, 4, 0.9); got != 0 {
		t.Errorf("Remaining on empty table = %v, want 0", got)
	}
}
