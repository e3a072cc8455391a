package dist

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// checkQuantileInvertsCDF verifies Quantile(CDF(x)) ≈ x over the body of d.
func checkQuantileInvertsCDF(t *testing.T, d Distribution, lo, hi float64) {
	t.Helper()
	for i := 1; i < 50; i++ {
		p := float64(i) / 50
		x := d.Quantile(p)
		if got := d.CDF(x); math.Abs(got-p) > 1e-6 {
			t.Errorf("%v: CDF(Quantile(%g)) = %g", d, p, got)
		}
		if x < lo || x > hi {
			t.Errorf("%v: Quantile(%g) = %g outside [%g, %g]", d, p, x, lo, hi)
		}
	}
}

// checkEmpiricalMean draws n samples and compares the mean within tol (only
// valid when the distribution has finite variance).
func checkEmpiricalMean(t *testing.T, d Distribution, n int, tol float64) {
	t.Helper()
	rng := NewRNG(12345)
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	got := sum / float64(n)
	if math.Abs(got-d.Mean()) > tol {
		t.Errorf("%v: empirical mean %g vs analytic %g (tol %g)", d, got, d.Mean(), tol)
	}
}

func TestParetoValidation(t *testing.T) {
	cases := []struct {
		alpha, beta float64
		ok          bool
	}{
		{1.7, 1, true},
		{0.5, 2, true},
		{0, 1, false},
		{-1, 1, false},
		{1.7, 0, false},
		{1.7, -2, false},
		{math.NaN(), 1, false},
		{1.7, math.NaN(), false},
		{math.Inf(1), 1, false},
	}
	for _, c := range cases {
		_, err := NewPareto(c.alpha, c.beta)
		if (err == nil) != c.ok {
			t.Errorf("NewPareto(%g, %g) err=%v, want ok=%v", c.alpha, c.beta, err, c.ok)
		}
	}
}

func TestParetoCDFQuantile(t *testing.T) {
	p := Pareto{Alpha: 1.7, Beta: 2}
	if got := p.CDF(1.9); got != 0 {
		t.Errorf("CDF below beta = %g", got)
	}
	if got := p.CDF(2); got != 0 {
		t.Errorf("CDF at beta = %g, want 0", got)
	}
	checkQuantileInvertsCDF(t, p, 2, math.Inf(1))
	if !math.IsInf(p.Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	if p.Quantile(0) != 2 {
		t.Error("Quantile(0) should be beta")
	}
}

func TestParetoMoments(t *testing.T) {
	p := Pareto{Alpha: 1.7, Beta: 1}
	if got, want := p.Mean(), 1.7/0.7; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if !math.IsInf(p.Variance(), 1) {
		t.Error("alpha=1.7 should have infinite variance")
	}
	if !p.HeavyTailed() {
		t.Error("alpha=1.7 is heavy-tailed")
	}
	p3 := Pareto{Alpha: 3, Beta: 1}
	if math.IsInf(p3.Variance(), 1) {
		t.Error("alpha=3 has finite variance")
	}
	if p3.HeavyTailed() {
		t.Error("alpha=3 is not heavy-tailed per Eq. 8")
	}
	p05 := Pareto{Alpha: 0.5, Beta: 1}
	if !math.IsInf(p05.Mean(), 1) {
		t.Error("alpha=0.5 has infinite mean")
	}
}

func TestParetoSampleAboveBeta(t *testing.T) {
	p := Pareto{Alpha: 1.7, Beta: 3}
	rng := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if x := p.Sample(rng); x < p.Beta || math.IsNaN(x) {
			t.Fatalf("sample %g below beta %g", x, p.Beta)
		}
	}
}

// Sample is Quantile of the stream's next Float64, bit for bit, so a caller
// may draw the uniforms first and transform them elsewhere (the estimator
// ablation does, on the pool).
func TestParetoSampleIsQuantileOfFloat64(t *testing.T) {
	for _, alpha := range []float64{0.9, 1.7, 3} {
		p := Pareto{Alpha: alpha, Beta: 0.3}
		a, b := NewRNG(11), NewRNG(11)
		for i := 0; i < 200000; i++ {
			if x, y := p.Sample(a), p.Quantile(b.Float64()); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("alpha %g, draw %d: Sample %v, Quantile(Float64()) %v", alpha, i, x, y)
			}
		}
	}
}

// Eq. 19: the minimum of K Pareto(alpha) samples is Pareto(K*alpha).
// Check analytically (MinK) and empirically via a Kolmogorov-Smirnov-style
// max-deviation test against the predicted cdf.
func TestParetoMinKLaw(t *testing.T) {
	base := Pareto{Alpha: 0.9, Beta: 1} // infinite mean!
	k := 3
	pred := base.MinK(k)
	if pred.Alpha != 2.7 || pred.Beta != 1 {
		t.Fatalf("MinK = %v", pred)
	}
	if math.IsInf(pred.Mean(), 1) {
		t.Error("min of 3 Pareto(0.9) should have finite mean (K*alpha > 1)")
	}

	rng := NewRNG(99)
	const n = 20000
	mins := make([]float64, n)
	for i := range mins {
		m := math.Inf(1)
		for j := 0; j < k; j++ {
			m = math.Min(m, base.Sample(rng))
		}
		mins[i] = m
	}
	sort.Float64s(mins)
	var maxDev float64
	for i, x := range mins {
		emp := float64(i+1) / n
		if d := math.Abs(emp - pred.CDF(x)); d > maxDev {
			maxDev = d
		}
	}
	if maxDev > 0.02 {
		t.Errorf("empirical min-of-%d cdf deviates %g from Pareto(%g) prediction", k, maxDev, pred.Alpha)
	}
}

// Eq. 11: P[min > l] = Q(l)^k for any distribution, exercised by quick.Check
// on the analytic Pareto survival function.
func TestMinSurvivalProperty(t *testing.T) {
	f := func(rawAlpha, rawX uint32, rawK uint8) bool {
		alpha := 0.3 + float64(rawAlpha%40)/10 // 0.3 .. 4.2
		p := Pareto{Alpha: alpha, Beta: 1}
		k := int(rawK%5) + 1
		x := 1 + float64(rawX%1000)/100
		lhs := Survival(p.MinK(k), x)
		rhs := math.Pow(Survival(p, x), float64(k))
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExponential(t *testing.T) {
	e := Exponential{Lambda: 2}
	checkQuantileInvertsCDF(t, e, 0, math.Inf(1))
	checkEmpiricalMean(t, e, 100000, 0.01)
	if e.CDF(-1) != 0 {
		t.Error("CDF of negative should be 0")
	}
	if e.Quantile(0) != 0 || !math.IsInf(e.Quantile(1), 1) {
		t.Error("Quantile edge cases")
	}
	if math.Abs(e.Variance()-0.25) > 1e-12 {
		t.Errorf("Variance = %g", e.Variance())
	}
}

func TestMixtureValidation(t *testing.T) {
	e := Exponential{Lambda: 1}
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture should fail")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{0.5}); err == nil {
		t.Error("weights not summing to 1 should fail")
	}
	if _, err := NewMixture([]Distribution{e, e}, []float64{1.5, -0.5}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewMixture([]Distribution{e, e}, []float64{0.3, 0.7}); err != nil {
		t.Errorf("valid mixture failed: %v", err)
	}
}

func TestMixtureMoments(t *testing.T) {
	// Exp(1) has mean 1 and variance 1, Exp(0.1) mean 10 and variance 100:
	// the mean is 5.5 and, by the law of total variance, the variance is
	// E[X²] - 5.5² = (2 + 200)/2 - 30.25 = 70.75.
	m, err := NewMixture(
		[]Distribution{Exponential{Lambda: 1}, Exponential{Lambda: 0.1}},
		[]float64{0.5, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean()-5.5) > 1e-12 {
		t.Errorf("mixture mean = %g", m.Mean())
	}
	if math.Abs(m.Variance()-70.75) > 1e-9 {
		t.Errorf("mixture variance = %g, want 70.75", m.Variance())
	}
	// Heavy component poisons moments.
	hm, err := NewMixture(
		[]Distribution{Exponential{Lambda: 1}, Pareto{Alpha: 0.5, Beta: 1}},
		[]float64{0.9, 0.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(hm.Mean(), 1) {
		t.Error("mixture with infinite-mean component should have infinite mean")
	}
}

func TestMixtureCDFAndQuantile(t *testing.T) {
	// Two narrow Pareto bands, [1, 2) and [10, 20): a draw of either
	// component leaves its band with probability 2^-50.
	m, err := NewMixture(
		[]Distribution{Pareto{Alpha: 50, Beta: 1}, Pareto{Alpha: 50, Beta: 10}},
		[]float64{0.5, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.CDF(2)-0.5) > 1e-12 {
		t.Errorf("CDF(2) = %g", m.CDF(2))
	}
	if q := m.Quantile(0.75); q < 10 || q > 20 {
		t.Errorf("Quantile(0.75) = %g, want in [10,20]", q)
	}
	if q := m.Quantile(0.25); q < 1 || q > 2 {
		t.Errorf("Quantile(0.25) = %g, want in [1,2]", q)
	}
	rng := NewRNG(3)
	var lowBand, highBand int
	for i := 0; i < 10000; i++ {
		x := m.Sample(rng)
		switch {
		case x >= 1 && x < 2:
			lowBand++
		case x >= 10 && x < 20:
			highBand++
		default:
			t.Fatalf("sample %g outside both components", x)
		}
	}
	if lowBand < 4500 || lowBand > 5500 {
		t.Errorf("component balance off: %d/%d", lowBand, highBand)
	}
}

func TestStrings(t *testing.T) {
	ds := []Distribution{
		Pareto{1.7, 1}, Exponential{1},
		Mixture{Components: []Distribution{Exponential{1}}, Weights: []float64{1}},
	}
	for _, d := range ds {
		if d.String() == "" {
			t.Errorf("%T has empty String", d)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	p := Pareto{Alpha: 1.7, Beta: 1}
	for i := 0; i < 100; i++ {
		if p.Sample(a) != p.Sample(b) {
			t.Fatal("same seed produced different streams")
		}
	}
}
