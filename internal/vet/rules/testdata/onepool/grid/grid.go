// Fixture: internal/grid is the pool itself, so it may start workers, read
// GOMAXPROCS and synchronize them.
package grid

import (
	"runtime"
	"sync"
	"sync/atomic"
)

func Run(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
