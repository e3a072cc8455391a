// Package sample implements the multi-sample performance estimators of §5.
// An Estimator reduces K repeated observations of the same configuration into
// one performance estimate. The paper's proposal is the minimum operator
// (Eq. 13): under heavy-tailed variability the mean of the samples need not
// converge (infinite variance), while min(y_1..y_K) concentrates on
// f(v) + n_min(v), which preserves the ordering of configurations.
package sample

import (
	"fmt"
	"math"
	"sort"
)

// Estimator reduces repeated observations into a single estimate.
type Estimator interface {
	// K returns how many observations the estimator wants per point.
	K() int
	// Estimate reduces the observations; obs has at least one element and
	// may be reused once Estimate returns, so it must not be retained.
	Estimate(obs []float64) float64
	String() string
}

// Adaptive estimators can stop sampling early (the §5.2 "update K
// adaptively" extension).
type Adaptive interface {
	Estimator
	// Enough reports whether the observations gathered so far suffice.
	Enough(obs []float64) bool
	// MaxK bounds the sample count.
	MaxK() int
}

// New returns the fixed-K estimator name selects: "single", or "min",
// "mean" or "median" of k observations.
func New(name string, k int) (Estimator, error) {
	switch name {
	case "single":
		return Single{}, nil
	case "min":
		return NewMinOfK(k)
	case "mean":
		return NewMeanOfK(k)
	case "median":
		return NewMedianOfK(k)
	default:
		return nil, fmt.Errorf("sample: unknown estimator %q", name)
	}
}

// Single uses one observation per point: the unmodified PRO baseline.
type Single struct{}

func (Single) K() int { return 1 }

func (Single) Estimate(obs []float64) float64 { return obs[0] }

func (Single) String() string { return "single" }

// MinOfK is the paper's estimator: the minimum of Samples observations.
type MinOfK struct {
	Samples int
}

// NewMinOfK validates k >= 1.
func NewMinOfK(k int) (MinOfK, error) {
	if k < 1 {
		return MinOfK{}, fmt.Errorf("sample: min-of-K needs k >= 1, got %d", k)
	}
	return MinOfK{Samples: k}, nil
}

func (m MinOfK) K() int { return m.Samples }

func (m MinOfK) Estimate(obs []float64) float64 {
	min := obs[0]
	for _, o := range obs[1:] {
		if o < min {
			min = o
		}
	}
	return min
}

func (m MinOfK) String() string { return fmt.Sprintf("min-of-%d", m.Samples) }

// MeanOfK averages the observations: the conventional estimator the paper
// argues against for heavy-tailed noise.
type MeanOfK struct {
	Samples int
}

// NewMeanOfK validates k >= 1.
func NewMeanOfK(k int) (MeanOfK, error) {
	if k < 1 {
		return MeanOfK{}, fmt.Errorf("sample: mean-of-K needs k >= 1, got %d", k)
	}
	return MeanOfK{Samples: k}, nil
}

func (m MeanOfK) K() int { return m.Samples }

func (m MeanOfK) Estimate(obs []float64) float64 {
	var sum float64
	for _, o := range obs {
		sum += o
	}
	return sum / float64(len(obs))
}

func (m MeanOfK) String() string { return fmt.Sprintf("mean-of-%d", m.Samples) }

// MedianOfK takes the sample median: more robust than the mean, less
// aggressive than the min; included for the estimator ablation.
type MedianOfK struct {
	Samples int
}

// NewMedianOfK validates k >= 1.
func NewMedianOfK(k int) (MedianOfK, error) {
	if k < 1 {
		return MedianOfK{}, fmt.Errorf("sample: median-of-K needs k >= 1, got %d", k)
	}
	return MedianOfK{Samples: k}, nil
}

func (m MedianOfK) K() int { return m.Samples }

func (m MedianOfK) Estimate(obs []float64) float64 {
	// Sort a copy, held on the stack for the usual small K.
	var buf [16]float64
	s := append(buf[:0], obs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (m MedianOfK) String() string { return fmt.Sprintf("median-of-%d", m.Samples) }

// AdaptiveMin keeps sampling until the running minimum stops improving by
// more than RelTol for Patience consecutive observations, up to Max samples.
// This implements the §5.2 direction of choosing K on line instead of fixing
// it a priori.
type AdaptiveMin struct {
	Min      int     // minimum samples before stopping is considered
	Max      int     // hard cap
	RelTol   float64 // relative improvement threshold
	Patience int     // consecutive non-improving samples required
}

// NewAdaptiveMin validates the configuration and fills defaults
// (min 2, patience 2, relTol 0.01).
func NewAdaptiveMin(min, max int, relTol float64, patience int) (AdaptiveMin, error) {
	if min < 1 {
		min = 2
	}
	if patience < 1 {
		patience = 2
	}
	if relTol <= 0 {
		relTol = 0.01
	}
	if max < min {
		return AdaptiveMin{}, fmt.Errorf("sample: adaptive-min needs max >= min, got %d < %d", max, min)
	}
	return AdaptiveMin{Min: min, Max: max, RelTol: relTol, Patience: patience}, nil
}

// K returns the minimum sample count; the evaluator keeps sampling while
// Enough is false, up to MaxK.
func (a AdaptiveMin) K() int { return a.Min }

// MaxK implements Adaptive.
func (a AdaptiveMin) MaxK() int { return a.Max }

// Enough reports whether the last Patience observations failed to improve
// the running minimum by more than RelTol.
func (a AdaptiveMin) Enough(obs []float64) bool {
	if len(obs) < a.Min {
		return false
	}
	if len(obs) >= a.Max {
		return true
	}
	if len(obs) <= a.Patience {
		return false
	}
	// Minimum over all but the last Patience observations.
	cut := len(obs) - a.Patience
	m := math.Inf(1)
	for _, o := range obs[:cut] {
		if o < m {
			m = o
		}
	}
	for _, o := range obs[cut:] {
		if o < m*(1-a.RelTol) {
			return false // still improving materially
		}
	}
	return true
}

func (a AdaptiveMin) Estimate(obs []float64) float64 {
	return MinOfK{Samples: len(obs)}.Estimate(obs)
}

func (a AdaptiveMin) String() string {
	return fmt.Sprintf("adaptive-min(%d..%d)", a.Min, a.Max)
}
