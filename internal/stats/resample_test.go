package stats

import (
	"math"
	"testing"
)

func TestStdErr(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	want := Summarize(xs).Std / math.Sqrt(5)
	if got := StdErr(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdErr = %g, want %g", got, want)
	}
	if !math.IsNaN(StdErr([]float64{1})) {
		t.Error("single sample should give NaN")
	}
}
