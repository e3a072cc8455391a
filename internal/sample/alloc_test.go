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
