// Package par runs independent, index-addressed jobs on a bounded pool of
// goroutines. It is the one worker pool of the repository: callers keep
// their results deterministic by writing each job's output into its own
// index slot and combining the slots afterwards, in index order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) and returns when every call
// has returned. The calls run on at most runtime.GOMAXPROCS(0) goroutines,
// concurrently and in no fixed order; with one usable goroutine they run
// serially on the caller's. fn must touch only state owned by its index or
// safe for concurrent use.
func For(n int, fn func(i int)) {
	w := min(n, runtime.GOMAXPROCS(0))
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
