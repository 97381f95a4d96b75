package sim

// Test files are exempt: a test may drive concurrent callers.

import "sync"

func hammer(f func()) {
	var wg sync.WaitGroup
	wg.Add(2)
	for range 2 {
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}
