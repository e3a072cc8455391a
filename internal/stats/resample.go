package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"paratune/internal/dist"
)

// StdErr returns the standard error of the sample mean, s/√n.
func StdErr(xs []float64) float64 {
	s := Summarize(xs)
	if s.N < 2 {
		return math.NaN()
	}
	return s.Std / math.Sqrt(float64(s.N))
}

// QQPoints returns paired (theoretical, empirical) quantiles of xs against
// the reference distribution d, at k evenly spaced probability levels. A
// straight line indicates the sample follows d; systematic upward curvature
// on the right indicates a heavier tail than d.
func QQPoints(xs []float64, d dist.Distribution, k int) (theoretical, empirical []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, errors.New("stats: QQPoints of empty sample")
	}
	if k < 2 {
		return nil, nil, fmt.Errorf("stats: QQPoints needs k >= 2, got %d", k)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	theoretical = make([]float64, k)
	empirical = make([]float64, k)
	for i := 0; i < k; i++ {
		p := (float64(i) + 0.5) / float64(k)
		theoretical[i] = d.Quantile(p)
		empirical[i] = percentileSorted(sorted, p)
	}
	return theoretical, empirical, nil
}
