package stats

import "math"

// StdErr returns the standard error of the sample mean, s/√n.
func StdErr(xs []float64) float64 {
	s := Summarize(xs)
	if s.N < 2 {
		return math.NaN()
	}
	return s.Std / math.Sqrt(float64(s.N))
}
