package sample

import (
	"math"
	"testing"

	"paratune/internal/dist"
)

// exceedanceProb returns Eq. 20 directly: the probability that the minimum
// of k Pareto(alpha, beta) noise samples exceeds beta + lambda.
func exceedanceProb(alpha, beta, lambda float64, k int) float64 {
	if lambda <= 0 || k < 1 {
		return 1
	}
	return math.Pow(beta/(beta+lambda), float64(k)*alpha)
}

func TestRequiredKValidation(t *testing.T) {
	cases := []struct {
		alpha, beta, lambda, eps float64
	}{
		{0, 1, 1, 0.05},
		{1.7, 0, 1, 0.05},
		{1.7, 1, 0, 0.05},
		{1.7, 1, 1, 0},
		{1.7, 1, 1, 1},
		{math.NaN(), 1, 1, 0.05},
	}
	for _, c := range cases {
		if _, err := RequiredK(c.alpha, c.beta, c.lambda, c.eps); err == nil {
			t.Errorf("RequiredK(%g, %g, %g, %g) should fail", c.alpha, c.beta, c.lambda, c.eps)
		}
	}
}

func TestRequiredKMatchesEq20(t *testing.T) {
	// The returned K must push the Eq. 20 exceedance below eps, while K-1
	// must not (unless K == 1).
	cases := []struct {
		alpha, beta, lambda, eps float64
	}{
		{1.7, 0.1, 0.05, 0.05},
		{1.7, 0.3, 0.05, 0.01},
		{0.9, 1.0, 0.5, 0.05}, // infinite-mean regime still admits a K
		{3.0, 0.2, 0.1, 0.001},
	}
	for _, c := range cases {
		k, err := RequiredK(c.alpha, c.beta, c.lambda, c.eps)
		if err != nil {
			t.Fatal(err)
		}
		if p := exceedanceProb(c.alpha, c.beta, c.lambda, k); p > c.eps {
			t.Errorf("K=%d gives exceedance %g > eps %g", k, p, c.eps)
		}
		if k > 1 {
			if p := exceedanceProb(c.alpha, c.beta, c.lambda, k-1); p <= c.eps {
				t.Errorf("K=%d not minimal: K-1 already gives %g <= %g", k, p, c.eps)
			}
		}
	}
}

func TestRequiredKMonotonic(t *testing.T) {
	// Tighter eps and smaller gaps need more samples.
	k1, _ := RequiredK(1.7, 0.3, 0.05, 0.05)
	k2, _ := RequiredK(1.7, 0.3, 0.05, 0.005)
	if k2 < k1 {
		t.Errorf("tighter eps should not need fewer samples: %d -> %d", k1, k2)
	}
	k3, _ := RequiredK(1.7, 0.3, 0.01, 0.05)
	if k3 < k1 {
		t.Errorf("smaller gap should not need fewer samples: %d -> %d", k1, k3)
	}
	// Bigger noise scale needs more samples.
	k4, _ := RequiredK(1.7, 0.6, 0.05, 0.05)
	if k4 < k1 {
		t.Errorf("larger beta should not need fewer samples: %d -> %d", k1, k4)
	}
}

// Empirical check of Eq. 20: the measured exceedance probability of the
// min-of-K estimator matches the analytic formula.
func TestExceedanceProbEmpirical(t *testing.T) {
	const (
		alpha  = 1.7
		beta   = 0.3
		lambda = 0.2
		k      = 3
		trials = 100000
	)
	p := dist.Pareto{Alpha: alpha, Beta: beta}
	rng := dist.NewRNG(42)
	exceed := 0
	for i := 0; i < trials; i++ {
		min := math.Inf(1)
		for j := 0; j < k; j++ {
			if s := p.Sample(rng); s < min {
				min = s
			}
		}
		if min > beta+lambda {
			exceed++
		}
	}
	got := float64(exceed) / trials
	want := exceedanceProb(alpha, beta, lambda, k)
	if math.Abs(got-want) > 0.005 {
		t.Errorf("empirical exceedance %g vs analytic %g", got, want)
	}
}

func TestNewKTunerValidation(t *testing.T) {
	if _, err := NewKTuner(1.0, 0.05, 0.05, 1, 10); err == nil {
		t.Error("alpha <= 1 should fail")
	}
	tn, err := NewKTuner(1.7, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Eps != 0.05 || tn.RelGap != 0.05 || tn.MinK != 1 || tn.MaxK != 10 {
		t.Errorf("defaults not applied: %+v", tn)
	}
	if tn.K() != 1 {
		t.Errorf("initial K = %d, want MinK", tn.K())
	}
	if tn.String() == "" {
		t.Error("String")
	}
}

func TestKTunerIgnoresDegenerateBatches(t *testing.T) {
	tn, _ := NewKTuner(1.7, 0.05, 0.05, 1, 10)
	tn.Observe(nil)
	tn.Observe([]float64{3})
	tn.Observe([]float64{-1, -2})
	tn.Observe([]float64{2, 2}) // mean == min: no dispersion signal
	if tn.Batches() != 0 {
		t.Errorf("degenerate batches counted: %d", tn.Batches())
	}
}

// The tuner must recommend more samples under stronger variability.
func TestKTunerScalesWithNoise(t *testing.T) {
	rng := dist.NewRNG(7)
	recommend := func(rho float64) int {
		tn, _ := NewKTuner(1.7, 0.05, 0.05, 1, 15)
		f := 2.0
		beta := (1.7 - 1) * rho / ((1 - rho) * 1.7) * f
		p := dist.Pareto{Alpha: 1.7, Beta: beta}
		for batch := 0; batch < 200; batch++ {
			obs := make([]float64, 5)
			for j := range obs {
				obs[j] = f + p.Sample(rng)
			}
			tn.Observe(obs)
		}
		return tn.K()
	}
	low := recommend(0.05)
	high := recommend(0.4)
	if high <= low {
		t.Errorf("K at rho=0.4 (%d) should exceed K at rho=0.05 (%d)", high, low)
	}
	if low < 1 || high > 15 {
		t.Errorf("recommendations out of bounds: %d, %d", low, high)
	}
}

// The β/f estimator should recover the true ratio to within a factor of 2.
// (Small-batch quantiles of heavy-tailed noise are skewed, so the smoothed
// estimate runs somewhat high — conservative for a sample-size controller.)
func TestKTunerBetaRecovery(t *testing.T) {
	rng := dist.NewRNG(9)
	tn, _ := NewKTuner(1.7, 0.05, 0.05, 1, 15)
	f := 2.0
	const trueRatio = 0.2
	p := dist.Pareto{Alpha: 1.7, Beta: trueRatio * f}
	for batch := 0; batch < 500; batch++ {
		obs := make([]float64, 8)
		for j := range obs {
			obs[j] = f + p.Sample(rng)
		}
		tn.Observe(obs)
	}
	if got := tn.BetaOverF(); got < trueRatio/2 || got > trueRatio*2 {
		t.Errorf("beta/f estimate %g, want within 2x of %g", got, trueRatio)
	}
}

func TestControlled(t *testing.T) {
	if _, err := NewControlled(nil); err == nil {
		t.Error("nil tuner should fail")
	}
	tn, _ := NewKTuner(1.7, 0.05, 0.05, 2, 10)
	c, err := NewControlled(tn)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 2 {
		t.Errorf("initial K = %d", c.K())
	}
	if got := c.Estimate([]float64{5, 3, 9}); got != 3 {
		t.Errorf("estimate = %g, want min", got)
	}
	if tn.Batches() != 1 {
		t.Error("Estimate should feed the tuner")
	}
	if c.String() == "" {
		t.Error("String")
	}
}

// End-to-end: a Controlled estimator driving the cluster evaluator adapts K
// upward under heavy noise. (The cluster integration lives in the cluster
// package; here we emulate its loop.)
func TestControlledAdaptsDuringUse(t *testing.T) {
	tn, _ := NewKTuner(1.7, 0.05, 0.05, 1, 12)
	c, _ := NewControlled(tn)
	rng := dist.NewRNG(21)
	f := 1.5
	p := dist.Pareto{Alpha: 1.7, Beta: 0.35 * f} // strong variability
	for round := 0; round < 100; round++ {
		k := c.K()
		if k < 1 || k > 12 {
			t.Fatalf("K out of range: %d", k)
		}
		// With K == 1 the batch carries no dispersion info; take at least 2
		// as any real controller would during calibration.
		n := k
		if n < 2 {
			n = 2
		}
		obs := make([]float64, n)
		for j := range obs {
			obs[j] = f + p.Sample(rng)
		}
		c.Estimate(obs)
	}
	if c.K() <= 1 {
		t.Errorf("controller never raised K under strong noise: K=%d", c.K())
	}
}
