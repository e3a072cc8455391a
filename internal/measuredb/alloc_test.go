package measuredb

import (
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/space"
)

// The exact-match lookup runs once per candidate per optimiser iteration on
// a warm-started run; the memo path hands it a reused buffer, so the lookup
// itself must not allocate: the stack key buffer must not escape and the
// map access must use the no-alloc string-conversion form.
func TestAppendObsAllocs(t *testing.T) {
	s := NewMemory(Options{})
	p := space.Point{1, 2, 3, 4}
	for i := 0; i < 5; i++ {
		s.Observe(p, float64(i))
	}
	dst := make([]float64, 0, 8)
	alloccheck.Guard(t, "measuredb.Store.AppendObsSource", 0, func() {
		dst, _, _ = s.AppendObsSource(dst[:0], p, 3)
	})
}
