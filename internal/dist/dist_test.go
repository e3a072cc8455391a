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

func TestNormal(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2}
	checkQuantileInvertsCDF(t, n, math.Inf(-1), math.Inf(1))
	checkEmpiricalMean(t, n, 100000, 0.03)
	if math.Abs(n.CDF(3)-0.5) > 1e-12 {
		t.Errorf("CDF at mean = %g", n.CDF(3))
	}
	if math.Abs(n.Quantile(0.5)-3) > 1e-9 {
		t.Errorf("median = %g", n.Quantile(0.5))
	}
	if !math.IsInf(n.Quantile(0), -1) || !math.IsInf(n.Quantile(1), 1) {
		t.Error("Quantile edges")
	}
}

func TestLogNormal(t *testing.T) {
	l := LogNormal{Mu: 0, Sigma: 0.5}
	checkQuantileInvertsCDF(t, l, 0, math.Inf(1))
	checkEmpiricalMean(t, l, 200000, 0.02)
	if l.CDF(0) != 0 || l.CDF(-1) != 0 {
		t.Error("CDF of non-positive should be 0")
	}
	if l.Quantile(0) != 0 {
		t.Error("Quantile(0) should be 0")
	}
	if v := l.Variance(); v <= 0 {
		t.Errorf("Variance = %g", v)
	}
}

func TestUniform(t *testing.T) {
	u := Uniform{A: -1, B: 3}
	checkQuantileInvertsCDF(t, u, -1, 3)
	checkEmpiricalMean(t, u, 100000, 0.02)
	if u.CDF(-2) != 0 || u.CDF(4) != 1 {
		t.Error("CDF outside range")
	}
	if u.Quantile(0) != -1 || u.Quantile(1) != 3 {
		t.Error("Quantile edges")
	}
	if math.Abs(u.Variance()-16.0/12) > 1e-12 {
		t.Errorf("Variance = %g", u.Variance())
	}
}

func TestWeibull(t *testing.T) {
	w := Weibull{K: 1.5, Lambda: 2}
	checkQuantileInvertsCDF(t, w, 0, math.Inf(1))
	checkEmpiricalMean(t, w, 200000, 0.02)
	if w.CDF(-1) != 0 {
		t.Error("CDF negative")
	}
	if w.Quantile(0) != 0 || !math.IsInf(w.Quantile(1), 1) {
		t.Error("Quantile edges")
	}
	if w.Variance() <= 0 {
		t.Error("Variance should be positive")
	}
}

func TestDegenerate(t *testing.T) {
	d := Degenerate{V: 5}
	rng := NewRNG(1)
	if d.Sample(rng) != 5 || d.Mean() != 5 || d.Variance() != 0 {
		t.Error("degenerate basics")
	}
	if d.CDF(4.999) != 0 || d.CDF(5) != 1 {
		t.Error("degenerate CDF")
	}
	if d.Quantile(0.3) != 5 {
		t.Error("degenerate quantile")
	}
}

func TestShiftedScaled(t *testing.T) {
	base := Exponential{Lambda: 1}
	s := Shifted{D: base, Offset: 10}
	if math.Abs(s.Mean()-11) > 1e-12 {
		t.Errorf("shifted mean = %g", s.Mean())
	}
	if math.Abs(s.Quantile(0.5)-(base.Quantile(0.5)+10)) > 1e-12 {
		t.Error("shifted quantile")
	}
	if s.Variance() != base.Variance() {
		t.Error("shift changes variance")
	}
	sc := Scaled{D: base, Factor: 3}
	if math.Abs(sc.Mean()-3) > 1e-12 {
		t.Errorf("scaled mean = %g", sc.Mean())
	}
	if math.Abs(sc.Variance()-9) > 1e-12 {
		t.Errorf("scaled variance = %g", sc.Variance())
	}
	if math.Abs(sc.CDF(3)-base.CDF(1)) > 1e-12 {
		t.Error("scaled cdf")
	}
	rng := NewRNG(2)
	for i := 0; i < 100; i++ {
		if s.Sample(rng) < 10 {
			t.Fatal("shifted sample below offset")
		}
		if sc.Sample(rng) < 0 {
			t.Fatal("scaled sample negative")
		}
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
	m, err := NewMixture(
		[]Distribution{Degenerate{V: 0}, Degenerate{V: 10}},
		[]float64{0.5, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Errorf("mixture mean = %g", m.Mean())
	}
	if math.Abs(m.Variance()-25) > 1e-9 {
		t.Errorf("mixture variance = %g, want 25", m.Variance())
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
	m, err := NewMixture(
		[]Distribution{Uniform{A: 0, B: 1}, Uniform{A: 10, B: 11}},
		[]float64{0.5, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.CDF(1)-0.5) > 1e-12 {
		t.Errorf("CDF(1) = %g", m.CDF(1))
	}
	if q := m.Quantile(0.75); q < 10 || q > 11 {
		t.Errorf("Quantile(0.75) = %g, want in [10,11]", q)
	}
	if q := m.Quantile(0.25); q < 0 || q > 1 {
		t.Errorf("Quantile(0.25) = %g, want in [0,1]", q)
	}
	rng := NewRNG(3)
	var lowBand, highBand int
	for i := 0; i < 10000; i++ {
		x := m.Sample(rng)
		switch {
		case x >= 0 && x <= 1:
			lowBand++
		case x >= 10 && x <= 11:
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
		Pareto{1.7, 1}, Exponential{1}, Normal{0, 1}, LogNormal{0, 1},
		Uniform{0, 1}, Weibull{1, 1}, Degenerate{0},
		Shifted{Degenerate{0}, 1}, Scaled{Degenerate{1}, 2},
		Mixture{Components: []Distribution{Degenerate{0}}, Weights: []float64{1}},
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

func TestBernoulli(t *testing.T) {
	b := Bernoulli{P: 0.3}
	rng := NewRNG(4)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		switch b.Sample(rng) {
		case 1:
			ones++
		case 0:
		default:
			t.Fatal("Bernoulli sample outside {0, 1}")
		}
	}
	if f := float64(ones) / n; math.Abs(f-0.3) > 0.01 {
		t.Errorf("P(1) = %g, want 0.3", f)
	}
	if b.CDF(-1) != 0 || math.Abs(b.CDF(0.5)-0.7) > 1e-12 || b.CDF(1) != 1 {
		t.Error("Bernoulli CDF")
	}
	if b.Quantile(0.5) != 0 || b.Quantile(0.9) != 1 {
		t.Error("Bernoulli quantile")
	}
	if b.Mean() != 0.3 || math.Abs(b.Variance()-0.21) > 1e-12 {
		t.Error("Bernoulli moments")
	}
	if b.String() == "" {
		t.Error("String")
	}
}
