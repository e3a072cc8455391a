package sample

import (
	"fmt"
	"math"
)

// RequiredK returns the smallest sample count K for which the min-of-K
// estimator's excess over f + β stays below lambda with probability at least
// 1 - eps, under Pareto(alpha, beta) noise. From Eq. 20 of the paper,
//
//	P[L_y^(K) > f + β + λ] = (β/(β+λ))^(K·α) ,
//
// so K = ⌈ ln(eps) / (α · ln(β/(β+λ))) ⌉ (Eq. 22's K₀). lambda is the
// smallest performance difference that must be resolved (§5.2's λ).
func RequiredK(alpha, beta, lambda, eps float64) (int, error) {
	if !(alpha > 0) {
		return 0, fmt.Errorf("sample: RequiredK needs alpha > 0, got %g", alpha)
	}
	if !(beta > 0) {
		return 0, fmt.Errorf("sample: RequiredK needs beta > 0, got %g", beta)
	}
	if !(lambda > 0) {
		return 0, fmt.Errorf("sample: RequiredK needs lambda > 0, got %g", lambda)
	}
	if !(eps > 0 && eps < 1) {
		return 0, fmt.Errorf("sample: RequiredK needs eps in (0, 1), got %g", eps)
	}
	k := math.Log(eps) / (alpha * math.Log(beta/(beta+lambda)))
	if k < 1 {
		return 1, nil
	}
	return int(math.Ceil(k)), nil
}

// KTuner chooses the per-configuration sample count on line — the §5.2
// extension the paper names as future work ("we are working on optimization
// algorithms that update K adaptively"). It estimates the Pareto noise scale
// β from the observations that flow through it and solves Eq. 22 for the K
// that resolves a RelGap-sized performance difference with error probability
// Eps.
//
// The β estimate uses robust quantiles under the paper's model y = f + n
// with n ~ Pareto(Alpha, β): the minimum observation approaches f + β while
// the median approaches f + β·2^(1/α), so
// median − min ≈ β·(2^(1/α) − 1). (The sample mean is useless here — for
// α < 2 the noise has infinite variance, which is the paper's whole point.)
type KTuner struct {
	// Alpha is the assumed noise tail index (the paper uses 1.7).
	Alpha float64
	// Eps is the acceptable probability of an unresolved comparison.
	Eps float64
	// RelGap is the smallest relative performance difference worth
	// resolving, as a fraction of f (λ = RelGap·f̂).
	RelGap float64
	// MinK and MaxK clamp the recommendation.
	MinK, MaxK int

	// Decay controls the exponential smoothing of the β/f estimate
	// (default 0.3: new batches move the estimate 30% of the way).
	Decay float64

	betaOverF float64 // smoothed estimate of β/f
	seen      int
	current   int
}

// NewKTuner validates the configuration and seeds the recommendation at
// MinK. Defaults: eps 0.05, relGap 0.05, minK 1, maxK 10, decay 0.3.
func NewKTuner(alpha, eps, relGap float64, minK, maxK int) (*KTuner, error) {
	if !(alpha > 1) {
		return nil, fmt.Errorf("sample: KTuner needs alpha > 1 (finite-mean noise), got %g", alpha)
	}
	if eps <= 0 || eps >= 1 {
		eps = 0.05
	}
	if relGap <= 0 {
		relGap = 0.05
	}
	if minK < 1 {
		minK = 1
	}
	if maxK < minK {
		maxK = minK + 9
	}
	return &KTuner{
		Alpha: alpha, Eps: eps, RelGap: relGap,
		MinK: minK, MaxK: maxK, Decay: 0.3, current: minK,
	}, nil
}

// Observe feeds one configuration's repeated observations into the β/f
// estimator and refreshes the K recommendation. Batches with fewer than two
// observations carry no dispersion information and are ignored.
func (t *KTuner) Observe(obs []float64) {
	if len(obs) < 2 {
		return
	}
	med := MedianOfK{Samples: len(obs)}.Estimate(obs)
	min := obs[0]
	for _, o := range obs[1:] {
		if o < min {
			min = o
		}
	}
	if min <= 0 || med <= min {
		return
	}
	// median - min ≈ β·(2^(1/α) - 1)  =>  β̂;  f ≈ min - β.
	beta := (med - min) / (math.Pow(2, 1/t.Alpha) - 1)
	f := min - beta
	if f <= 0 {
		// Noise dominates the observation; treat the whole min as scale.
		f = min
	}
	ratio := beta / f
	// Clamp pathological batches (a single spike can make the ratio huge)
	// before they enter the smoothed estimate.
	if ratio > 2 {
		ratio = 2
	}
	if t.seen == 0 {
		t.betaOverF = ratio
	} else {
		t.betaOverF += t.Decay * (ratio - t.betaOverF)
	}
	t.seen++
	t.refresh()
}

func (t *KTuner) refresh() {
	if t.betaOverF <= 0 {
		t.current = t.MinK
		return
	}
	// λ = RelGap·f and β = betaOverF·f: the f cancels in Eq. 22.
	k, err := RequiredK(t.Alpha, t.betaOverF, t.RelGap, t.Eps)
	if err != nil {
		t.current = t.MinK
		return
	}
	if k < t.MinK {
		k = t.MinK
	}
	if k > t.MaxK {
		k = t.MaxK
	}
	t.current = k
}

// K returns the current recommendation.
func (t *KTuner) K() int { return t.current }

// BetaOverF returns the smoothed β/f estimate (0 until observations arrive).
func (t *KTuner) BetaOverF() float64 { return t.betaOverF }

// Batches returns how many observation batches informed the estimate.
func (t *KTuner) Batches() int { return t.seen }

func (t *KTuner) String() string {
	return fmt.Sprintf("ktuner(α=%g, ε=%g, gap=%g%%, K=%d)", t.Alpha, t.Eps, 100*t.RelGap, t.current)
}

// Controlled is a min estimator whose sample count follows a KTuner: every
// batch of observations both produces an estimate and updates the tuner, so
// later evaluations use the K that current variability justifies.
//
// A single observation carries no dispersion information, so until
// Calibration batches have been seen, K() reports at least 2 even when the
// tuner would recommend 1 — otherwise a controller started at K = 1 could
// never learn the variability level.
type Controlled struct {
	Tuner *KTuner
	// Calibration is the number of multi-sample batches required before the
	// controller trusts a K = 1 recommendation (default 5).
	Calibration int
}

// NewControlled wires a controlled estimator around the tuner.
func NewControlled(t *KTuner) (*Controlled, error) {
	if t == nil {
		return nil, fmt.Errorf("sample: Controlled needs a KTuner")
	}
	return &Controlled{Tuner: t, Calibration: 5}, nil
}

// K returns the tuner's current recommendation, floored at 2 during the
// calibration phase.
func (c *Controlled) K() int {
	k := c.Tuner.K()
	if c.Tuner.Batches() < c.Calibration && k < 2 {
		return 2
	}
	return k
}

// Estimate reduces with the min operator and feeds the tuner.
func (c *Controlled) Estimate(obs []float64) float64 {
	c.Tuner.Observe(obs)
	return MinOfK{Samples: len(obs)}.Estimate(obs)
}

func (c *Controlled) String() string { return "controlled-" + c.Tuner.String() }
