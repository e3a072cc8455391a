package sample

import (
	"testing"

	"paratune/internal/alloccheck"
)

// MinOfK.Estimate runs once per candidate per iteration: it must not
// allocate at all.
func TestMinOfKEstimateAllocBudget(t *testing.T) {
	est, err := NewMinOfK(3)
	if err != nil {
		t.Fatal(err)
	}
	obs := []float64{3, 1, 2}
	var sink float64
	alloccheck.Guard(t, "MinOfK.Estimate", 0, func() {
		sink = est.Estimate(obs)
	})
	if sink != 1 {
		t.Fatalf("Estimate = %v, want 1", sink)
	}
}

// MedianOfK.Estimate sorts a copy of its input; up to 16 observations the
// copy lives on the stack.
func TestMedianOfKEstimateAllocBudget(t *testing.T) {
	est, err := NewMedianOfK(5)
	if err != nil {
		t.Fatal(err)
	}
	obs := []float64{3, 1, 2, 5, 4}
	var sink float64
	alloccheck.Guard(t, "MedianOfK.Estimate", 0, func() {
		sink = est.Estimate(obs)
	})
	if sink != 3 || obs[0] != 3 {
		t.Fatalf("Estimate = %v with input %v, want 3 and the input unsorted", sink, obs)
	}
	// Past the stack buffer the copy moves to the heap.
	long := make([]float64, 17)
	for i := range long {
		long[i] = float64((i * 7) % 17)
	}
	if got := est.Estimate(long); got != 8 {
		t.Fatalf("median of 0..16 = %v, want 8", got)
	}
}
