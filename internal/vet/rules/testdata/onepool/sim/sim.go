// Fixture: outside internal/grid, a package may not start goroutines, size
// a pool from GOMAXPROCS, or share state through sync or sync/atomic.
package sim

import (
	"runtime"
	"sync"        // want `import of sync outside internal/grid`
	"sync/atomic" // want `import of sync/atomic outside internal/grid`
)

type counter struct {
	mu sync.Mutex
	n  atomic.Int64
}

func fanOut(tasks []func()) {
	workers := runtime.GOMAXPROCS(0) // want `runtime.GOMAXPROCS outside internal/grid`
	_ = workers
	procs := runtime.GOMAXPROCS // want `runtime.GOMAXPROCS outside internal/grid`
	_ = procs
	for _, task := range tasks {
		go task() // want `go statement outside internal/grid`
	}
	go func() {}() // want `go statement outside internal/grid`

	// Other runtime functions and plain closures are fine.
	_ = runtime.NumCPU()
	f := func() {}
	f()
}
