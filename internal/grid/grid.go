// Package grid is the repository's one worker pool. Every parallel fan-out
// runs on it: the (alloc, run) simulations of a C(p, a) build, the forward
// runs of one online prediction, and the (job × seed × knob × policy) grid
// points of every experiment.
//
// The determinism contract (DESIGN.md, "The grid executor"):
//
//   - workers claim item indices from one shared counter, so the claimed
//     indices are always a prefix of [0, n), and every claimed item runs to
//     completion;
//   - after the first failure no worker claims another item, so Run returns
//     the error of the lowest failing index at any worker count;
//   - items receive their worker index only so callers can give each worker
//     private scratch state (a reusable sim.Runner or cluster.Engine)
//     without synchronization: a worker runs one item at a time. Results
//     must depend on the item index alone; callers derive seeds from it and
//     write each item's result to its own slot.
package grid

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob against an item count: 0 (or
// negative) means runtime.GOMAXPROCS(0), and the pool is never larger than
// the number of items nor smaller than 1. Callers sizing per-worker state
// should use this so their slice matches the pool Run actually creates.
func Workers(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return max(1, min(parallelism, n))
}

// Run calls fn(worker, i) for every i in [0, n) on Workers(parallelism, n)
// workers, worker being the executing worker's index. It returns nil once
// every item has succeeded; otherwise it stops handing out items, waits for
// the claimed ones, and returns the error of the lowest failing index. With
// one worker the items run inline, in index order, on the caller's
// goroutine.
func Run(n, parallelism int, fn func(worker, i int) error) error {
	workers := Workers(parallelism, n)
	if workers == 1 {
		for i := range n {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	p := &pool{n: n, fn: fn}
	p.wg.Add(workers)
	for w := range workers {
		go p.work(w)
	}
	p.wg.Wait()
	return p.err
}

// pool is one parallel Run's shared state, kept in a single value so that
// it escapes to the heap as one allocation.
type pool struct {
	n      int
	fn     func(worker, i int) error
	next   atomic.Int64
	stop   atomic.Bool
	mu     sync.Mutex // guards err and errIdx
	err    error
	errIdx int
	wg     sync.WaitGroup
}

func (p *pool) work(worker int) {
	defer p.wg.Done()
	for !p.stop.Load() {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		if err := p.fn(worker, i); err != nil {
			p.fail(i, err)
			return
		}
	}
}

// fail records item i's error if it is the lowest so far and stops further
// claims. Items claimed before the stop still finish, and every index below
// a claimed one was claimed too, so the lowest recorded failure is the
// lowest failing index overall.
func (p *pool) fail(i int, err error) {
	p.mu.Lock()
	if p.err == nil || i < p.errIdx {
		p.err, p.errIdx = err, i
	}
	p.mu.Unlock()
	p.stop.Store(true)
}
