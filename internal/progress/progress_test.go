package progress

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/jockeysim/jockey/internal/dag"
	"github.com/jockeysim/jockey/internal/profile"
	"github.com/jockeysim/jockey/internal/stats"
	"github.com/jockeysim/jockey/internal/trace"
)

func testProfile(t testing.TB) *profile.Profile {
	t.Helper()
	job := dag.NewBuilder("p").
		Stage("map", 10).   // T=100s (10 tasks x 10s), Q=10s
		Stage("reduce", 5). // T=100s (5 x 20s), Q=0
		Edge("map", "reduce", dag.AllToAll).
		MustBuild()
	return profile.MustNew(job, []profile.StageProfile{
		{Exec: stats.Point{V: 10 * time.Second}, Queue: stats.Point{V: time.Second}},
		{Exec: stats.Point{V: 20 * time.Second}},
	})
}

func TestTotalWorkWithQ(t *testing.T) {
	p := testProfile(t)
	ind := NewTotalWorkWithQ(p)
	if got := ind.Progress([]float64{0, 0}); got != 0 {
		t.Errorf("empty progress = %v", got)
	}
	if got := ind.Progress([]float64{1, 1}); got != 1 {
		t.Errorf("full progress = %v", got)
	}
	// Map stage weight = 110s, reduce = 100s, total 210s.
	want := 110.0 / 210.0
	if got := ind.Progress([]float64{1, 0}); math.Abs(got-want) > 1e-12 {
		t.Errorf("map-done progress = %v, want %v", got, want)
	}
}

func TestTotalWorkIgnoresQueue(t *testing.T) {
	p := testProfile(t)
	ind := NewTotalWork(p)
	if got := ind.Progress([]float64{1, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("progress = %v, want 0.5", got)
	}
}

func TestVertexFrac(t *testing.T) {
	p := testProfile(t)
	ind := NewVertexFrac(p)
	// 10 of 15 vertices.
	if got := ind.Progress([]float64{1, 0}); math.Abs(got-10.0/15.0) > 1e-12 {
		t.Errorf("progress = %v", got)
	}
	if got := ind.Progress([]float64{0.5, 0.2}); math.Abs(got-(5+1)/15.0) > 1e-12 {
		t.Errorf("progress = %v", got)
	}
}

func TestCPIndicator(t *testing.T) {
	p := testProfile(t)
	ind := NewCP(p)
	// S_0 = l_map + L_map = 10 + 20 = 30s.
	if got := ind.Progress([]float64{0, 0}); got != 0 {
		t.Errorf("initial = %v", got)
	}
	if got := ind.Progress([]float64{1, 1}); got != 1 {
		t.Errorf("final = %v", got)
	}
	// Map half done: S_t = max(0.5*10+20, 20) = 25 -> p = 1-25/30.
	want := 1 - 25.0/30.0
	if got := ind.Progress([]float64{0.5, 0}); math.Abs(got-want) > 1e-12 {
		t.Errorf("half-map = %v, want %v", got, want)
	}
	// The CP indicator gets "stuck": when only reduce remains and is not
	// started, progress stays at 1-20/30 regardless of map details.
	a := ind.Progress([]float64{1, 0})
	if math.Abs(a-(1-20.0/30.0)) > 1e-12 {
		t.Errorf("map done = %v", a)
	}
}

func TestRemainingCriticalPath(t *testing.T) {
	cp := NewCriticalPath(testProfile(t))
	if got := cp.Remaining([]float64{0, 0}); got != 30*time.Second {
		t.Errorf("S_0 = %v, want 30s", got)
	}
	if got := cp.Remaining([]float64{1, 0.5}); got != 10*time.Second {
		t.Errorf("S_t = %v, want 10s", got)
	}
	if got := cp.Remaining([]float64{1, 1}); got != 0 {
		t.Errorf("S_t = %v, want 0", got)
	}
}

func TestMinStage(t *testing.T) {
	spans := []Span{{0, 0.4}, {0.4, 1}}
	ind := NewMinStage(spans)
	if got := ind.Progress([]float64{0, 0}); got != 0 {
		t.Errorf("initial = %v", got)
	}
	// Map half done, reduce untouched: min(0.2, 0.4) = 0.2.
	if got := ind.Progress([]float64{0.5, 0}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("progress = %v", got)
	}
	// Map done, reduce half: min over unfinished = 0.4+0.5*0.6 = 0.7.
	if got := ind.Progress([]float64{1, 0.5}); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("progress = %v", got)
	}
	if got := ind.Progress([]float64{1, 1}); got != 1 {
		t.Errorf("final = %v", got)
	}
}

func TestSpansFromTrace(t *testing.T) {
	tr := trace.New("x", 2)
	tr.AddTask(trace.TaskEvent{Stage: 0, Queued: 0, Started: time.Second, Ended: 40 * time.Second})
	tr.AddTask(trace.TaskEvent{Stage: 1, Queued: 40 * time.Second, Started: 50 * time.Second, Ended: 100 * time.Second})
	tr.Completion = 100 * time.Second
	spans := SpansFromTrace(tr, 3)
	if spans[0].Begin != 0 || math.Abs(spans[0].End-0.4) > 1e-12 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if math.Abs(spans[1].Begin-0.4) > 1e-12 || spans[1].End != 1 {
		t.Errorf("span 1 = %+v", spans[1])
	}
	// Missing stage gets the conservative full span.
	if spans[2].Begin != 0 || spans[2].End != 1 {
		t.Errorf("span 2 = %+v", spans[2])
	}
}

// TestIndicatorsMonotoneProperty: all indicators must be monotone
// non-decreasing in every stage fraction, bounded in [0,1], 0-ish at start
// and exactly 1 at completion.
func TestIndicatorsMonotoneProperty(t *testing.T) {
	p := testProfile(t)
	inds := []Indicator{
		NewTotalWorkWithQ(p), NewTotalWork(p), NewVertexFrac(p), NewCP(p),
		NewMinStage([]Span{{0, 0.4}, {0.4, 1}}),
	}
	f := func(a1, a2, b1, b2 float64) bool {
		norm := func(v float64) float64 { return math.Abs(math.Mod(v, 1)) }
		fa := []float64{norm(a1), norm(a2)}
		fb := []float64{math.Min(fa[0]+norm(b1), 1), math.Min(fa[1]+norm(b2), 1)}
		for _, ind := range inds {
			pa, pb := ind.Progress(fa), ind.Progress(fb)
			if pa < 0 || pa > 1 || pb < 0 || pb > 1 {
				return false
			}
			if pb < pa-1e-9 {
				return false
			}
			if ind.Progress([]float64{1, 1}) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDegenerateWeights(t *testing.T) {
	// A job whose profile reports zero work everywhere must still yield a
	// sane indicator (progress 1, not NaN).
	job := dag.NewBuilder("z").Stage("a", 1).MustBuild()
	p := profile.MustNew(job, []profile.StageProfile{{Exec: stats.Point{V: time.Nanosecond}}})
	p.Stages[0].TotalWork = 0
	p.Stages[0].TotalQueue = 0
	ind := NewTotalWorkWithQ(p)
	if got := ind.Progress([]float64{0}); got != 1 {
		t.Errorf("degenerate progress = %v", got)
	}
}
