// Fixture: the rule is not limited to the deterministic packages; a harness
// package must also run its parallel work on the pool.
package experiments

import "sync" // want `import of sync outside internal/grid`

var mu sync.Mutex

func background(f func()) {
	go f() // want `go statement outside internal/grid`
}
