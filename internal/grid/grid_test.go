package grid

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/stats"
)

// mix runs n items whose results depend only on their index, plus
// per-worker scratch accumulation to prove workers never share scratch
// state (the -race build would catch sharing).
func mix(t *testing.T, n, par int) []uint64 {
	t.Helper()
	workers := Workers(par, n)
	scratch := make([]uint64, workers)
	out := make([]uint64, n)
	err := Run(n, par, func(worker, i int) error {
		if worker < 0 || worker >= workers {
			return fmt.Errorf("worker index %d out of [0, %d)", worker, workers)
		}
		out[i] = stats.SplitMix64(uint64(i))
		scratch[worker] += out[i] // un-synchronized: workers must be disjoint
		return nil
	})
	if err != nil {
		t.Fatalf("parallelism %d: %v", par, err)
	}
	return out
}

func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 37
	want := mix(t, n, 1)
	for _, par := range []int{4, 8} {
		got := mix(t, n, par)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: result[%d] = %d, want %d", par, i, got[i], want[i])
			}
		}
	}
}

// TestRunCoversAllIndices: every index runs exactly once at any worker
// count, including worker counts above the item count.
func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 37
		counts := make([]int32, n)
		done := make(chan error)
		go func() {
			done <- Run(n, workers, func(_, i int) error {
				// Each index is owned by exactly one worker, so a plain
				// increment is race-free by construction (and the -race CI
				// job verifies that claim).
				counts[i]++
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: Run did not finish", workers)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	for _, par := range []int{1, 4} {
		if err := Run(0, par, func(int, int) error { return errors.New("called") }); err != nil {
			t.Fatalf("Run(0 items, parallelism %d) = %v, want nil", par, err)
		}
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(4, 100); w != 4 {
		t.Errorf("Workers(4, 100) = %d, want 4", w)
	}
	if w := Workers(8, 3); w != 3 {
		t.Errorf("Workers(8, 3) = %d, want 3 (clamped to item count)", w)
	}
	if w := Workers(0, 5); w < 1 || w > 5 {
		t.Errorf("Workers(0, 5) = %d, want in [1, 5]", w)
	}
	if w := Workers(-1, 0); w != 1 {
		t.Errorf("Workers(-1, 0) = %d, want 1", w)
	}
}

// TestRunReportsLowestFailure pins the failure contract: items 3 and up
// fail, and item 3 (when other workers exist) holds its worker until a
// later item has failed first. Run must still return item 3's error, since
// every index below a claimed one is claimed and finishes. A serial run
// must claim nothing after the failure.
func TestRunReportsLowestFailure(t *testing.T) {
	const n = 16
	for _, par := range []int{1, 2, 8} {
		var after atomic.Int64 // items above 3 that ran
		laterFailed := make(chan struct{})
		var once sync.Once
		err := Run(n, par, func(_, i int) error {
			switch {
			case i < 3:
				return nil
			case i == 3:
				if Workers(par, n) > 1 {
					select {
					case <-laterFailed:
					case <-time.After(10 * time.Second):
						t.Errorf("parallelism %d: no later item failed while item 3 ran", par)
					}
				}
			default:
				after.Add(1)
				defer once.Do(func() { close(laterFailed) })
			}
			return fmt.Errorf("item %d failed", i)
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("parallelism %d: err = %v, want item 3's error", par, err)
		}
		if par == 1 && after.Load() != 0 {
			t.Fatalf("serial run claimed %d items after the failure", after.Load())
		}
	}
}

func TestCacheSingleFlight(t *testing.T) {
	var c Cache[int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) {
				builds.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want exactly 1 (single-flight)", n)
	}
}

// TestCacheHitDoesNotWaitOnOtherBuild is the regression test for the old
// Env behavior, where one mutex was held across a full model build and a
// cache *hit* for a different job blocked behind it. A hit must return
// while an unrelated build is still in flight.
func TestCacheHitDoesNotWaitOnOtherBuild(t *testing.T) {
	var c Cache[string]
	if _, err := c.Get("fast", func() (string, error) { return "cached", nil }); err != nil {
		t.Fatal(err)
	}

	slowEntered := make(chan struct{})
	slowRelease := make(chan struct{})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		c.Get("slow", func() (string, error) {
			close(slowEntered)
			<-slowRelease // the build stays in flight until the hit completes
			return "built", nil
		})
	}()
	<-slowEntered

	hit := make(chan string, 1)
	go func() {
		v, _ := c.Get("fast", func() (string, error) { return "rebuilt?!", nil })
		hit <- v
	}()
	select {
	case v := <-hit:
		if v != "cached" {
			t.Fatalf("hit returned %q, want the cached value", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cache hit blocked behind an in-flight build of a different key")
	}
	close(slowRelease)
	<-slowDone
}

func TestCacheCachesErrors(t *testing.T) {
	var c Cache[int]
	var builds atomic.Int64
	boom := errors.New("bad build")
	for i := 0; i < 3; i++ {
		if _, err := c.Get("k", func() (int, error) { builds.Add(1); return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("Get #%d err = %v, want the build error", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failed build ran %d times, want 1 (errors are cached)", n)
	}
}
