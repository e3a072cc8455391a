package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, q    float64
		beyond     int
		tailSample float64
	}{
		{n: 1000, want: 0.99, q: 0.99, beyond: 10, tailSample: 990},
		{n: 100000, want: 0.99, q: 0.99, beyond: 1000, tailSample: 99000},
		{n: 200, want: 0.99, q: 0.95, beyond: 10, tailSample: 190},
		{n: 57, want: 0.99, q: 47.0 / 57, beyond: 10, tailSample: 47},
		{n: 1024, want: 0.90, q: 0.90, beyond: 102, tailSample: 922},
		{n: 15, want: 0.99, q: 0.5, beyond: 7, tailSample: 8},
	} {
		tl := tailOf(seq(c.n), c.want)
		if math.Abs(tl.Q-c.q) > 1e-12 || tl.Beyond != c.beyond || tl.Tail != c.tailSample || tl.N != c.n {
			t.Errorf("n=%d want p%g: got q=%g beyond=%d tail=%g n=%d; want q=%g beyond=%d tail=%g",
				c.n, c.want, tl.Q, tl.Beyond, tl.Tail, tl.N, c.q, c.beyond, c.tailSample)
		}
	}
	if q := tailQuantile(0, 0.99); q != 0.5 {
		t.Errorf("no samples: q=%g, want 0.5", q)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for q, want := range map[float64]float64{0: 1, 0.1: 1, 0.5: 5, 0.9: 9, 0.91: 10, 1: 10} {
		if got := percentile(xs, q); got != want {
			t.Errorf("p%g of 1..10 = %g, want %g", 100*q, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{7, 1, 3, 3, 9, 2}, 1.75, 3, 7.5},
		{[]float64{4, 2}, 1.5, 3, 4.5}, // two samples extrapolate
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianAndSummary(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	xs := []float64{10, 12, 11, 13, 9, 10, 11, 12, 10, 11}
	s := summarise(xs)
	q1, q2, q3 := quartiles(xs)
	if s.N != 10 || s.Median != 11 || s.Median != q2 || s.Q1 != q1 || s.Q3 != q3 {
		t.Fatalf("summary %+v disagrees with median/quartiles %g %g %g", s, q1, q2, q3)
	}
	if want := (q3 - q1) / 11 * 100; math.Abs(s.IQRPercent-want) > 1e-12 {
		t.Errorf("spread %g%%, want %g%%", s.IQRPercent, want)
	}
	if one := summarise([]float64{5}); one.Median != 5 || one.IQRPercent != 0 {
		t.Errorf("single sample summary %+v", one)
	}
	if xs[0] != 10 || xs[4] != 9 {
		t.Error("summarise reordered its input")
	}
}
