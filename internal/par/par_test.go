package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			hits := make([]atomic.Int32, n)
			For(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, got)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// At most GOMAXPROCS calls are ever in flight.
func TestForBoundsConcurrency(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	var live, peak atomic.Int32
	For(200, func(int) {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		live.Add(-1)
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("%d calls in flight, GOMAXPROCS is 3", p)
	}
}
