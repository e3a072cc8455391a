// Package dist provides the probability distributions used to model
// performance variability, with sampling, cdf/quantile evaluation, and
// moments. The Pareto distribution is central: §4.2 of the paper models
// cluster variability as heavy-tailed, and §5 exploits the fact (Eq. 19)
// that the minimum of K Pareto(α) samples is Pareto(Kα).
//
// All sampling is driven by an explicit *rand.Rand so experiments are
// reproducible under a fixed seed.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Distribution is a one-dimensional probability distribution.
type Distribution interface {
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
	// CDF returns P[X <= x].
	CDF(x float64) float64
	// Quantile returns the p-quantile, the inverse of CDF. p must be in [0,1].
	Quantile(p float64) float64
	// Mean returns the expected value; +Inf when it does not exist.
	Mean() float64
	// Variance returns the variance; +Inf when it does not exist.
	Variance() float64
	// String describes the distribution.
	String() string
}

// Survival returns 1 - CDF(x) = P[X > x], the Q function of Eq. 10.
func Survival(d Distribution, x float64) float64 { return 1 - d.CDF(x) }

// Pareto is the Pareto distribution with tail index Alpha and scale Beta:
// P[X <= x] = 1 - (Beta/x)^Alpha for x >= Beta (Eq. 9). Beta is the smallest
// value the variable can take. For 1 < Alpha < 2 the mean is finite and the
// variance infinite; for 0 < Alpha < 1 both are infinite.
type Pareto struct {
	Alpha float64
	Beta  float64
}

// NewPareto validates the parameters and returns the distribution.
func NewPareto(alpha, beta float64) (Pareto, error) {
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		return Pareto{}, fmt.Errorf("dist: Pareto alpha must be positive and finite, got %g", alpha)
	}
	if !(beta > 0) || math.IsInf(beta, 1) {
		return Pareto{}, fmt.Errorf("dist: Pareto beta must be positive and finite, got %g", beta)
	}
	return Pareto{Alpha: alpha, Beta: beta}, nil
}

// Sample draws by inverse transform: beta * U^(-1/alpha).
func (p Pareto) Sample(rng *rand.Rand) float64 {
	// 1-Float64() is in (0,1], avoiding a division by zero.
	u := 1 - rng.Float64()
	return p.Beta * math.Pow(u, -1/p.Alpha)
}

// CDF implements Eq. 9.
func (p Pareto) CDF(x float64) float64 {
	if x < p.Beta {
		return 0
	}
	return 1 - math.Pow(p.Beta/x, p.Alpha)
}

// Quantile inverts the cdf.
func (p Pareto) Quantile(q float64) float64 {
	switch {
	case q <= 0:
		return p.Beta
	case q >= 1:
		return math.Inf(1)
	}
	return p.Beta * math.Pow(1-q, -1/p.Alpha)
}

// Mean implements Eq. 16: alpha*beta/(alpha-1) for alpha > 1, else +Inf.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Beta / (p.Alpha - 1)
}

// Variance is finite only for alpha > 2.
func (p Pareto) Variance() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Beta * p.Beta * a / ((a - 1) * (a - 1) * (a - 2))
}

// HeavyTailed reports whether the distribution is heavy-tailed per Eq. 8
// (0 < alpha < 2).
func (p Pareto) HeavyTailed() bool { return p.Alpha > 0 && p.Alpha < 2 }

// MinK returns the exact distribution of min(X_1..X_k) for i.i.d. Pareto
// samples: Pareto with tail index k*Alpha and the same Beta (Eq. 19). This is
// the paper's key analytic fact: for k > 1/Alpha the minimum has finite mean
// and variance even when the samples do not.
func (p Pareto) MinK(k int) Pareto {
	return Pareto{Alpha: float64(k) * p.Alpha, Beta: p.Beta}
}

// orderStatBand is OrderStat's band: a relative width on u = 1-r.
const orderStatBand = 0x1p-20

// OrderStat returns the rank-th smallest (0-based) of f + p.Quantile(r) over
// the non-empty rs, each r in [0, 1), bit for bit, and transforms only the
// draws that can give it. A draw's transform is Quantile's β·(1-r)^(-1/α),
// which is Quantile(r) for every r in [0, 1), with the exponent computed
// once. It does not allocate for up to 16 draws, and for the smallest and
// largest rank at any length.
//
// The value falls as u = 1-r grows. Let u* be the u of the rank-th smallest
// value in exact arithmetic. A draw whose u lies outside the band
// [u*(1-b), u*(1+b)], b = 2^-20, has a u a relative b or more (up to the
// rounding of the band's ends) beyond that of every draw on the far side of
// u*, and so an exact power u^(-1/α) a relative b/(2α) >= 2^-41 or more
// beyond theirs when α <= 2^20. math.Pow's result is within a relative
// 2^-44 of the exact power for α >= 1/2: it is Exp(yf·Log(u)) with
// |yf| <= 1/2 and |yf·Log(u)| < 19, times at most one squaring and one
// mantissa product for an integer part of 1 or 2 (0.9's exponent, -1.11,
// has integer part 1), then a reciprocal and an exact Ldexp; α = 2 takes
// 1/Sqrt(u), and u = 1 gives exactly 1. So rounding cannot carry a draw
// across the band, and multiplying by β and adding f round monotonically.
// The L draws with u above the band are then no larger than every draw
// with u <= u*, those with u below it no smaller than every draw with
// u >= u*, and the rank-th smallest of all is the (rank-L)-th smallest of
// the band's. So the L are counted, those below skipped, and only the band
// is transformed. α outside [1/2, 2^20] transforms every draw.
func (p Pareto) OrderStat(f float64, rs []float64, rank int) float64 {
	last, e := len(rs)-1, -1/p.Alpha
	band := p.Alpha >= 0.5 && p.Alpha <= 0x1p20
	switch rank {
	case last: // the smallest u; nothing lies below its band
		u := 1.0
		for _, r := range rs {
			u = min(u, 1-r)
		}
		hi := math.Inf(1)
		if band {
			hi = u * (1 + orderStatBand)
		}
		y := math.Inf(-1)
		for _, r := range rs {
			if 1-r <= hi {
				if v := f + p.Beta*math.Pow(1-r, e); v > y {
					y = v
				}
			}
		}
		return y
	case 0: // the largest u; nothing lies above its band
		u := 0.0
		for _, r := range rs {
			u = max(u, 1-r)
		}
		lo := 0.0
		if band {
			lo = u * (1 - orderStatBand)
		}
		y := math.Inf(1)
		for _, r := range rs {
			if 1-r >= lo {
				if v := f + p.Beta*math.Pow(1-r, e); v < y {
					y = v
				}
			}
		}
		return y
	}
	return p.orderStatInner(f, rs, rank, e, band)
}

// orderStatInner is OrderStat for a rank strictly between the extremes.
func (p Pareto) orderStatInner(f float64, rs []float64, rank int, e float64, band bool) float64 {
	var buf [16]float64
	us := buf[:0]
	for _, r := range rs {
		us = append(us, 1-r)
	}
	slices.Sort(us)
	lo, hi := 0.0, math.Inf(1)
	if u := us[len(us)-1-rank]; band {
		lo, hi = u*(1-orderStatBand), u*(1+orderStatBand)
	}
	vs, above := us[:0], 0
	for _, r := range rs {
		switch w := 1 - r; {
		case w > hi:
			above++
		case w >= lo:
			vs = append(vs, f+p.Beta*math.Pow(1-r, e))
		}
	}
	slices.Sort(vs)
	return vs[rank-above]
}

func (p Pareto) String() string { return fmt.Sprintf("Pareto(α=%g, β=%g)", p.Alpha, p.Beta) }

// Exponential has rate Lambda: P[X <= x] = 1 - exp(-Lambda x).
type Exponential struct {
	Lambda float64
}

func (e Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() / e.Lambda }

func (e Exponential) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1 - math.Exp(-e.Lambda*x)
}

func (e Exponential) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return -math.Log(1-p) / e.Lambda
}

func (e Exponential) Mean() float64     { return 1 / e.Lambda }
func (e Exponential) Variance() float64 { return 1 / (e.Lambda * e.Lambda) }
func (e Exponential) String() string    { return fmt.Sprintf("Exp(λ=%g)", e.Lambda) }

// Mixture draws from Components[i] with probability Weights[i]. Weights must
// be non-negative and sum to 1 (checked by NewMixture). Mixtures of a narrow
// bulk and a fat Pareto tail reproduce the "small and big spikes" structure
// of the GS2 traces (Fig. 3).
type Mixture struct {
	Components []Distribution
	Weights    []float64
}

// NewMixture validates the weights and returns the mixture.
func NewMixture(components []Distribution, weights []float64) (Mixture, error) {
	if len(components) == 0 || len(components) != len(weights) {
		return Mixture{}, fmt.Errorf("dist: mixture needs matching non-empty components/weights, got %d/%d",
			len(components), len(weights))
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return Mixture{}, fmt.Errorf("dist: negative mixture weight %g", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		return Mixture{}, fmt.Errorf("dist: mixture weights sum to %g, want 1", sum)
	}
	return Mixture{Components: components, Weights: weights}, nil
}

func (m Mixture) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	for i, w := range m.Weights {
		acc += w
		if u < acc {
			return m.Components[i].Sample(rng)
		}
	}
	return m.Components[len(m.Components)-1].Sample(rng)
}

func (m Mixture) CDF(x float64) float64 {
	var c float64
	for i, w := range m.Weights {
		c += w * m.Components[i].CDF(x)
	}
	return c
}

// Quantile inverts the mixture cdf by bisection.
func (m Mixture) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		lo := math.Inf(1)
		for _, c := range m.Components {
			lo = math.Min(lo, c.Quantile(0))
		}
		return lo
	case p >= 1:
		return math.Inf(1)
	}
	lo, hi := -1e6, 1e6
	for m.CDF(hi) < p && hi < 1e300 {
		hi *= 2
	}
	for m.CDF(lo) > p && lo > -1e300 {
		lo *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if m.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func (m Mixture) Mean() float64 {
	var mu float64
	for i, w := range m.Weights {
		if w == 0 {
			continue
		}
		cm := m.Components[i].Mean()
		if math.IsInf(cm, 1) {
			return math.Inf(1)
		}
		mu += w * cm
	}
	return mu
}

func (m Mixture) Variance() float64 {
	mu := m.Mean()
	if math.IsInf(mu, 1) {
		return math.Inf(1)
	}
	var ex2 float64
	for i, w := range m.Weights {
		if w == 0 {
			continue
		}
		cv, cm := m.Components[i].Variance(), m.Components[i].Mean()
		if math.IsInf(cv, 1) {
			return math.Inf(1)
		}
		ex2 += w * (cv + cm*cm)
	}
	return ex2 - mu*mu
}

func (m Mixture) String() string { return fmt.Sprintf("Mixture(%d components)", len(m.Components)) }
