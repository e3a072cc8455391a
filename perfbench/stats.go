package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// A p99 over 200 samples rests on two values; the benchmark instead reports
// the highest percentile that still has minTail samples above it.
const minTail = 10

// tailQuantile returns the quantile to report in place of want for n
// samples: want itself when at least minTail samples lie above it, else the
// highest quantile that leaves minTail above, never below the median. Under
// the nearest-rank rule, quantile q selects index ceil(q·n)-1, so the
// samples above it number n-ceil(q·n), which is at least minTail exactly
// when q <= (n-minTail)/n.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := float64(n-minTail) / float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// rankIndex is the 0-based nearest-rank index of quantile q among n sorted
// samples. The epsilon keeps q·n from rounding up past an exact rank.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank q-quantile of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// by the same exclusive method as Python's statistics.quantiles(xs, n=4),
// so the spreads this program prints match ones computed from its results
// with that function. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// summary is a timing or rate reported as the median of repeated samples
// with its quartile spread.
type summary struct {
	N          int
	Median     float64
	Q1, Q3     float64
	IQRPercent float64 // (Q3-Q1)/Median·100
}

// summarise reduces repeated samples of one metric.
func summarise(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	if len(xs) >= 2 {
		s.Q1, _, s.Q3 = quartiles(xs)
	} else if len(xs) == 1 {
		s.Q1, s.Q3 = xs[0], xs[0]
	}
	if s.Median != 0 {
		s.IQRPercent = (s.Q3 - s.Q1) / s.Median * 100
	}
	return s
}

// tail is a latency distribution reduced to its median and the highest
// percentile at or below Want that has minTail samples beyond it.
type tail struct {
	N      int
	P50    float64
	Q      float64 // the quantile actually reported for the tail
	Tail   float64
	Want   float64
	Beyond int // samples strictly above the reported tail index
}

// tailOf summarises unsorted samples.
func tailOf(xs []float64, want float64) tail {
	s := sortedCopy(xs)
	q := tailQuantile(len(s), want)
	t := tail{N: len(s), P50: percentile(s, 0.5), Q: q, Tail: percentile(s, q), Want: want}
	if len(s) > 0 {
		t.Beyond = len(s) - 1 - rankIndex(len(s), q)
	}
	return t
}

// mean returns the arithmetic mean, NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
