package sample

import (
	"math"
	"testing"
	"testing/quick"

	"paratune/internal/dist"
	"paratune/internal/stats"
)

func TestNewByName(t *testing.T) {
	for name, want := range map[string]string{
		"single": "single", "min": "min-of-3", "mean": "mean-of-3", "median": "median-of-3",
	} {
		e, err := New(name, 3)
		if err != nil || e.String() != want {
			t.Errorf("New(%q, 3) = %v, %v; want %s", name, e, err, want)
		}
	}
	if _, err := New("adaptive", 3); err == nil {
		t.Error("New accepted a name outside the fixed-K set")
	}
	if _, err := New("min", 0); err == nil {
		t.Error("New accepted k = 0")
	}
}

func TestSingle(t *testing.T) {
	var e Estimator = Single{}
	if e.K() != 1 {
		t.Errorf("K = %d", e.K())
	}
	if e.Estimate([]float64{3.5}) != 3.5 {
		t.Error("single estimate")
	}
}

func TestMinOfK(t *testing.T) {
	if _, err := NewMinOfK(0); err == nil {
		t.Error("k=0 should fail")
	}
	m, err := NewMinOfK(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 {
		t.Errorf("K = %d", m.K())
	}
	if got := m.Estimate([]float64{5, 2, 9}); got != 2 {
		t.Errorf("min = %g", got)
	}
	if got := m.Estimate([]float64{7}); got != 7 {
		t.Errorf("min of one = %g", got)
	}
}

func TestMeanOfK(t *testing.T) {
	if _, err := NewMeanOfK(0); err == nil {
		t.Error("k=0 should fail")
	}
	m, _ := NewMeanOfK(4)
	if got := m.Estimate([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
}

func TestMedianOfK(t *testing.T) {
	if _, err := NewMedianOfK(0); err == nil {
		t.Error("k=0 should fail")
	}
	m, _ := NewMedianOfK(3)
	if got := m.Estimate([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %g", got)
	}
	if got := m.Estimate([]float64{1, 9, 5, 3}); got != 4 {
		t.Errorf("even median = %g", got)
	}
	// Median must not mutate the input.
	obs := []float64{9, 1, 5}
	m.Estimate(obs)
	if obs[0] != 9 {
		t.Error("Estimate reordered its input")
	}
}

// The min operator is invariant under appending larger values; the mean is
// not. This is the robustness the paper exploits.
func TestMinInvariantUnderSpikes(t *testing.T) {
	m, _ := NewMinOfK(5)
	base := []float64{2, 3, 4}
	withSpike := append(append([]float64(nil), base...), 1e9, math.Inf(1))
	if m.Estimate(base) != m.Estimate(withSpike) {
		t.Error("min changed when spikes were appended")
	}
	mean, _ := NewMeanOfK(5)
	if !math.IsInf(mean.Estimate(withSpike), 1) {
		t.Error("mean should be destroyed by an Inf spike")
	}
}

// §5: under Pareto(alpha=1.7) noise (infinite variance), min-of-K estimates
// of the same configuration have much lower dispersion than mean-of-K.
func TestMinBeatsMeanUnderHeavyTail(t *testing.T) {
	p := dist.Pareto{Alpha: 1.7, Beta: 0.1}
	rng := dist.NewRNG(77)
	const f = 2.0
	const k = 5
	const trials = 3000
	minEst, _ := NewMinOfK(k)
	meanEst, _ := NewMeanOfK(k)
	mins := make([]float64, trials)
	means := make([]float64, trials)
	obs := make([]float64, k)
	for i := 0; i < trials; i++ {
		for j := range obs {
			obs[j] = f + p.Sample(rng)
		}
		mins[i] = minEst.Estimate(obs)
		means[i] = meanEst.Estimate(obs)
	}
	sMin, sMean := stats.Summarize(mins), stats.Summarize(means)
	if sMin.Std >= sMean.Std {
		t.Errorf("min std %g should be far below mean std %g", sMin.Std, sMean.Std)
	}
	// The min concentrates near f + beta.
	if math.Abs(sMin.Mean-(f+0.1)) > 0.05 {
		t.Errorf("min-of-%d centred at %g, want ≈ %g", k, sMin.Mean, f+0.1)
	}
}

// Ordering preservation (the §5.1 comparison property): with enough samples,
// min-of-K orders two configurations by their true f values with high
// probability, even under heavy-tailed noise.
func TestMinPreservesOrdering(t *testing.T) {
	p := dist.Pareto{Alpha: 1.7, Beta: 0.05}
	rng := dist.NewRNG(99)
	f1, f2 := 2.0, 2.3
	est, _ := NewMinOfK(7)
	correct := 0
	const trials = 500
	obs1 := make([]float64, est.K())
	obs2 := make([]float64, est.K())
	for i := 0; i < trials; i++ {
		for j := range obs1 {
			// beta scales with f per Eq. 17's linearity.
			obs1[j] = f1 + dist.Pareto{Alpha: 1.7, Beta: 0.05 * f1}.Sample(rng)
			obs2[j] = f2 + dist.Pareto{Alpha: 1.7, Beta: 0.05 * f2}.Sample(rng)
		}
		if est.Estimate(obs1) < est.Estimate(obs2) {
			correct++
		}
	}
	_ = p
	if frac := float64(correct) / trials; frac < 0.95 {
		t.Errorf("min-of-7 ordered correctly only %.1f%% of trials", frac*100)
	}
}

func TestAdaptiveMinValidation(t *testing.T) {
	if _, err := NewAdaptiveMin(5, 3, 0.01, 2); err == nil {
		t.Error("max < min should fail")
	}
	a, err := NewAdaptiveMin(0, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Min != 2 || a.Patience != 2 || a.RelTol != 0.01 {
		t.Errorf("defaults not applied: %+v", a)
	}
}

func TestAdaptiveMinEnough(t *testing.T) {
	a, _ := NewAdaptiveMin(2, 10, 0.05, 2)
	if a.Enough([]float64{5}) {
		t.Error("below Min should not be enough")
	}
	// Flat observations: enough once patience satisfied.
	if !a.Enough([]float64{5, 5, 5, 5}) {
		t.Error("flat sequence should be enough")
	}
	// Still improving: not enough.
	if a.Enough([]float64{5, 4, 3, 2}) {
		t.Error("improving sequence should not be enough")
	}
	// Hard cap.
	improving := make([]float64, 10)
	for i := range improving {
		improving[i] = float64(20 - i)
	}
	if !a.Enough(improving) {
		t.Error("max samples reached must be enough")
	}
	if a.K() != 2 || a.MaxK() != 10 {
		t.Error("K/MaxK accessors")
	}
	if got := a.Estimate([]float64{4, 2, 7}); got != 2 {
		t.Errorf("adaptive estimate = %g", got)
	}
}

// Property: for any observation set, min <= median <= mean when all values
// are non-negative... (median <= mean does not hold in general; check
// min <= median and min <= mean).
func TestEstimatorOrderingProperty(t *testing.T) {
	minE, _ := NewMinOfK(1)
	medE, _ := NewMedianOfK(1)
	meanE, _ := NewMeanOfK(1)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		obs := make([]float64, len(raw))
		for i, r := range raw {
			obs[i] = float64(r)
		}
		m := minE.Estimate(obs)
		return m <= medE.Estimate(obs) && m <= meanE.Estimate(obs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	a, _ := NewAdaptiveMin(2, 8, 0.01, 2)
	es := []Estimator{Single{}, MinOfK{3}, MeanOfK{3}, MedianOfK{3}, a}
	for _, e := range es {
		if e.String() == "" {
			t.Errorf("%T empty String", e)
		}
	}
}
