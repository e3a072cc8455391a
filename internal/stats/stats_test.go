package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"paratune/internal/dist"
)

// sampleN draws n variates from d.
func sampleN(d dist.Distribution, rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	return xs
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Sum != 15 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if !almost(s.Variance, 2.5, 1e-12) {
		t.Errorf("Variance = %g, want 2.5", s.Variance)
	}
	if !almost(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %g", s.Std)
	}
}

func TestSummarizeEdge(t *testing.T) {
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.Mean != 7 || one.Variance != 0 || one.Min != 7 || one.Max != 7 {
		t.Errorf("single summary = %+v", one)
	}
}

func TestMinMedianPercentile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	if Min(xs) != 1 {
		t.Errorf("Min = %g", Min(xs))
	}
	if Median(xs) != 5 {
		t.Errorf("Median = %g", Median(xs))
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %g", got)
	}
	if got := Percentile(xs, 1); got != 9 {
		t.Errorf("P100 = %g", got)
	}
	if got := Percentile(xs, 0.25); got != 3 {
		t.Errorf("P25 = %g", got)
	}
	// Interpolation between order stats.
	if got := Percentile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated median = %g", got)
	}
	// Input must not be reordered.
	if xs[0] != 9 {
		t.Error("Percentile mutated its input")
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min(nil) should panic")
		}
	}()
	Min(nil)
}

func TestTruncate(t *testing.T) {
	xs := []float64{1, 6, 2, 5, 9, 5}
	got := Truncate(xs, 5)
	want := []float64{1, 2, 5, 5}
	if len(got) != len(want) {
		t.Fatalf("Truncate = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Truncate = %v, want %v", got, want)
		}
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); !almost(got, c.want, 1e-12) {
			t.Errorf("Eval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if got := e.Survival(2); !almost(got, 0.25, 1e-12) {
		t.Errorf("Survival(2) = %g", got)
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
	if got := e.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %g", got)
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("empty ECDF should error")
	}
}

func TestSurvivalPoints(t *testing.T) {
	e, _ := NewECDF([]float64{1, 2, 2, 3})
	xs, qs := e.SurvivalPoints()
	// x=3 has survival 0 and must be dropped for the log-log plot.
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("xs = %v", xs)
	}
	if !almost(qs[0], 0.75, 1e-12) || !almost(qs[1], 0.25, 1e-12) {
		t.Fatalf("qs = %v", qs)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, -1, 10}
	h, err := NewHistogram(xs, 0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Errorf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
	if h.Total != 7 {
		t.Errorf("Total = %d", h.Total)
	}
	// Bins: [0,1): {0, 0.5}; [1,2): {1, 1.5}; [2,3]: {2, 2.5, 3}.
	want := []int{2, 2, 3}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("Counts = %v, want %v", h.Counts, want)
		}
	}
	if !almost(h.BinCenter(0), 0.5, 1e-12) {
		t.Errorf("BinCenter(0) = %g", h.BinCenter(0))
	}
	if !almost(h.Fraction(2), 3.0/7, 1e-12) {
		t.Errorf("Fraction(2) = %g", h.Fraction(2))
	}
	if !almost(h.Density(0), 2.0/7, 1e-12) {
		t.Errorf("Density(0) = %g", h.Density(0))
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 0); err == nil {
		t.Error("zero bins should fail")
	}
	if _, err := NewHistogram(nil, 1, 1, 3); err == nil {
		t.Error("lo == hi should fail")
	}
	if _, err := AutoHistogram(nil, 3); err == nil {
		t.Error("empty AutoHistogram should fail")
	}
	h, err := AutoHistogram([]float64{2, 2, 2}, 3)
	if err != nil {
		t.Fatalf("constant AutoHistogram: %v", err)
	}
	if h.Total != 3 {
		t.Errorf("constant data total = %d", h.Total)
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2, 1e-12) || !almost(fit.Intercept, 1, 1e-12) || !almost(fit.R2, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("degenerate x should fail")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

// The log-log survival regression should recover the Pareto tail index
// within a reasonable tolerance.
func TestLogLogTailFitRecoversAlpha(t *testing.T) {
	p := dist.Pareto{Alpha: 1.7, Beta: 1}
	rng := dist.NewRNG(4242)
	xs := sampleN(p, rng, 50000)
	fit, err := LogLogTailFit(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Alpha, 1.7, 0.15) {
		t.Errorf("tail fit alpha = %g, want ≈ 1.7", fit.Alpha)
	}
	if fit.R2 < 0.95 {
		t.Errorf("Pareto tail should be nearly linear in log-log, R2 = %g", fit.R2)
	}
	if !fit.HeavyTailed() {
		t.Error("Pareto(1.7) should register as heavy-tailed")
	}
}

// Light-tailed data must NOT register as heavy-tailed.
func TestLogLogTailFitLightTail(t *testing.T) {
	rng := dist.NewRNG(7)
	xs := sampleN(dist.Exponential{Lambda: 1}, rng, 50000)
	fit, err := LogLogTailFit(xs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if fit.HeavyTailed() {
		t.Errorf("exponential flagged heavy-tailed: %+v", fit)
	}
}

func TestLogLogTailFitValidation(t *testing.T) {
	if _, err := LogLogTailFit([]float64{1, 2, 3}, 0); err == nil {
		t.Error("tailFrac 0 should fail")
	}
	if _, err := LogLogTailFit([]float64{1, 2, 3}, 1.5); err == nil {
		t.Error("tailFrac > 1 should fail")
	}
	if _, err := LogLogTailFit(nil, 0.5); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := LogLogTailFit([]float64{1, 1, 1}, 0.5); err == nil {
		t.Error("constant data should fail")
	}
}

func TestHillEstimator(t *testing.T) {
	p := dist.Pareto{Alpha: 1.7, Beta: 1}
	rng := dist.NewRNG(11)
	xs := sampleN(p, rng, 50000)
	alpha, err := HillEstimator(xs, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(alpha, 1.7, 0.15) {
		t.Errorf("Hill alpha = %g, want ≈ 1.7", alpha)
	}
}

func TestHillEstimatorValidation(t *testing.T) {
	if _, err := HillEstimator([]float64{1, 2}, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := HillEstimator([]float64{1, 2}, 2); err == nil {
		t.Error("k=n should fail")
	}
	if _, err := HillEstimator([]float64{-1, -2, 3}, 2); err == nil {
		t.Error("non-positive order stats should fail")
	}
	if _, err := HillEstimator([]float64{5, 5, 5, 5}, 2); err == nil {
		t.Error("constant tail should fail")
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfectly alternating series has lag-1 autocorrelation near -1.
	xs := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	r, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r > -0.7 {
		t.Errorf("alternating lag-1 autocorr = %g, want strongly negative", r)
	}
	r0, err := Autocorrelation(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r0, 1, 1e-9) {
		t.Errorf("lag-0 autocorr = %g, want 1", r0)
	}
	if _, err := Autocorrelation(xs, len(xs)); err == nil {
		t.Error("lag >= n should fail")
	}
	if _, err := Autocorrelation([]float64{3, 3, 3}, 1); err == nil {
		t.Error("zero variance should fail")
	}
}

func TestRunningMeanMinCumSum(t *testing.T) {
	xs := []float64{4, 2, 6}
	rm := RunningMean(xs)
	if !almost(rm[0], 4, 1e-12) || !almost(rm[1], 3, 1e-12) || !almost(rm[2], 4, 1e-12) {
		t.Errorf("RunningMean = %v", rm)
	}
	rmin := RunningMin(xs)
	if rmin[0] != 4 || rmin[1] != 2 || rmin[2] != 2 {
		t.Errorf("RunningMin = %v", rmin)
	}
	cs := CumSum(xs)
	if cs[0] != 4 || cs[1] != 6 || cs[2] != 12 {
		t.Errorf("CumSum = %v", cs)
	}
}

// §5.1 demonstrated empirically: for Pareto with α < 1 (infinite mean) the
// running mean keeps drifting upward while the running min converges to β.
func TestMinConvergesWhereMeanDiverges(t *testing.T) {
	p := dist.Pareto{Alpha: 0.8, Beta: 1}
	rng := dist.NewRNG(5)
	xs := sampleN(p, rng, 100000)
	rmin := RunningMin(xs)
	final := rmin[len(rmin)-1]
	if !almost(final, 1, 0.01) {
		t.Errorf("running min = %g, should approach beta = 1", final)
	}
	rm := RunningMean(xs)
	if rm[len(rm)-1] < 3 {
		t.Errorf("running mean of infinite-mean Pareto unexpectedly small: %g", rm[len(rm)-1])
	}
}

// Property: ECDF evaluated at its own quantile is consistent.
func TestECDFQuantileConsistency(t *testing.T) {
	rng := dist.NewRNG(21)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		p := float64(raw) / math.MaxUint16
		q := e.Quantile(p)
		return e.Eval(q) >= p-0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CumSum is monotone for non-negative inputs.
func TestCumSumMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		cs := CumSum(xs)
		for i := 1; i < len(cs); i++ {
			if cs[i] < cs[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxEqual(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},              // exact fast path
		{0, 0, 0, true},              // exact zero
		{1, 1 + 1e-12, 1e-9, true},   // within relative tolerance
		{1e9, 1e9 + 1, 1e-6, true},   // relative tolerance scales with magnitude
		{1, 1.1, 1e-3, false},        // outside tolerance
		{0, 1e-12, 1e-9, true},       // near zero: absolute tolerance applies
		{inf, inf, 1e-9, true},       // equal infinities compare equal
		{inf, -inf, 1e-9, false},     // opposite infinities do not
		{math.NaN(), 1, 1e-9, false}, // NaN is never approximately anything
		{math.NaN(), math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
