package control

import (
	"slices"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

// recentLiveCopy is the retired recentLive: it scanned every live event and
// copied those inside the recency window into a trace of their own. The
// guard now returns a view of the live trace's suffix instead; this
// reference pins that the two agree.
func recentLiveCopy(g *Guard, now time.Duration) (*trace.JobTrace, bool) {
	cutoff := now - liveWindow
	out := trace.New(g.live.JobName, g.live.NumStages)
	ok := 0
	for _, e := range g.live.Events {
		if e.Ended < cutoff {
			continue
		}
		out.AddTask(e)
		if !e.Failed {
			ok++
		}
	}
	return out, ok >= g.minLive
}

// TestRecentLiveViewMatchesCopy: on generated live streams, with runs of
// equal end times, failures, empty streams and query times before, inside
// and after the stream, the view holds exactly the events the copying
// reference keeps, reports the same verdict, and is capped so that an
// append cannot write into the live trace.
func TestRecentLiveViewMatchesCopy(t *testing.T) {
	rng := stats.NewRNG(stats.DeriveSeed(1, "recent-live"))
	for trial := range 300 {
		g := guardFixture(t, time.Hour, nil)
		g.minLive = 1 + rng.IntN(8)
		var end time.Duration
		n := rng.IntN(80)
		for i := range n {
			// A third of the gaps are zero: ties at the window's edge.
			end += time.Duration(rng.IntN(3)) * time.Duration(rng.IntN(120)) * time.Second
			g.ObserveTask(trace.TaskEvent{
				Stage: 0, Task: i % 10, Attempt: i / 10,
				Started: end - time.Second, Ended: end,
				Failed: rng.IntN(4) == 0,
			})
		}
		live := slices.Clone(g.live.Events)
		for range 10 {
			now := time.Duration(rng.Int64N(int64(end+2*liveWindow) + 1))
			if rng.IntN(4) == 0 && n > 0 {
				// Land the cutoff exactly on a recorded end time.
				now = g.live.Events[rng.IntN(n)].Ended + liveWindow
			}
			got, gotOK := g.recentLive(now)
			want, wantOK := recentLiveCopy(g, now)
			if got.JobName != want.JobName || got.NumStages != want.NumStages ||
				!slices.Equal(got.Events, want.Events) || len(got.Timeline) != 0 || got.Completion != 0 {
				t.Fatalf("trial %d, now %v: view %+v, copy %+v", trial, now, got, want)
			}
			if gotOK != wantOK {
				t.Fatalf("trial %d, now %v: view says enough samples = %v, copy %v", trial, now, gotOK, wantOK)
			}
			if cap(got.Events) != len(got.Events) {
				t.Fatalf("trial %d, now %v: view has spare capacity %d", trial, now, cap(got.Events)-len(got.Events))
			}
			_ = append(got.Events, trace.TaskEvent{Ended: -1})
		}
		if !slices.Equal(g.live.Events, live) {
			t.Fatalf("trial %d: the live trace changed under its views", trial)
		}
	}
}
