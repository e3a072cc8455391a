// Package noise implements the performance-variability models of §4. Every
// model perturbs a noise-free step time f(v) into an observed time
// y = f(v) + n(v) (Eq. 5).
//
// Two models matter most:
//
//   - IIDPareto is the §6 simulation model: n(v) is i.i.d. Pareto with tail
//     index Alpha and scale β derived from the idle throughput ρ via Eq. 17,
//     making E[n(v)] a linear function of f(v) as Eq. 7 requires.
//   - TwoPriorityQueue is the literal §4.1 mechanism: a strict-priority
//     server where first-priority jobs arrive at random and preempt the
//     application, so the observed finishing time includes all high-priority
//     work that arrives before completion. Its expected slowdown is
//     1/(1-ρ) (Eq. 6).
package noise

import (
	"fmt"
	"math"
	"math/rand"

	"paratune/internal/dist"
)

// Model perturbs noise-free step times into observed times.
type Model interface {
	// Perturb returns the observed time for a step with noise-free time f.
	// Implementations must return a value >= 0 and may return +Inf to model
	// a pathological stall.
	Perturb(f float64, rng *rand.Rand) float64
	// Rho returns the idle system throughput ρ the model represents
	// (the fraction of capacity consumed by first-priority work); 0 when
	// not applicable. Used for Normalized Total Time (Eq. 23).
	Rho() float64
	String() string
}

// None is the zero-variability model: observations equal f exactly.
type None struct{}

func (None) Perturb(f float64, _ *rand.Rand) float64 { return f }
func (None) Rho() float64                            { return 0 }
func (None) String() string                          { return "none" }

// IIDPareto adds i.i.d. Pareto(Alpha, β(f)) noise with β chosen per Eq. 17:
//
//	β = (Alpha-1)·ρ / ((1-ρ)·Alpha) · f
//
// so that E[n] = ρ/(1-ρ)·f (Eq. 7). Requires Alpha > 1 (finite mean, else
// Eq. 17 is meaningless) and 0 <= ρ < 1. With ρ = 0 the model is exact.
type IIDPareto struct {
	Alpha float64
	RhoV  float64
}

// NewIIDPareto validates parameters. Alpha must exceed 1; rho in [0, 1).
func NewIIDPareto(alpha, rho float64) (IIDPareto, error) {
	if !(alpha > 1) {
		return IIDPareto{}, fmt.Errorf("noise: IIDPareto needs alpha > 1 for Eq. 17, got %g", alpha)
	}
	if rho < 0 || rho >= 1 || math.IsNaN(rho) {
		return IIDPareto{}, fmt.Errorf("noise: rho must be in [0, 1), got %g", rho)
	}
	return IIDPareto{Alpha: alpha, RhoV: rho}, nil
}

// Beta returns the Eq. 17 scale for a step of noise-free time f.
func (m IIDPareto) Beta(f float64) float64 {
	return (m.Alpha - 1) * m.RhoV / ((1 - m.RhoV) * m.Alpha) * f
}

func (m IIDPareto) Perturb(f float64, rng *rand.Rand) float64 {
	if !m.Draws(f) {
		return f
	}
	return m.Apply(f, rng.Float64())
}

// Draws reports whether Perturb draws for a step of noise-free time f: the
// model is exact, and draws nothing, at ρ = 0 and for f <= 0.
func (m IIDPareto) Draws(f float64) bool { return m.RhoV != 0 && f > 0 }

// Apply returns the observed time for the uniform draw r in [0, 1): f plus
// the Pareto(Alpha, β(f)) inverse transform of dist.Pareto.Sample.
func (m IIDPareto) Apply(f, r float64) float64 {
	return f + m.Beta(f)*math.Pow(1-r, -1/m.Alpha)
}

// Slowest returns the largest Apply(f, r) over rs, bit for bit, and
// transforms only the draws that can give it: it is the top rank of
// dist.Pareto.OrderStat over Pareto(Alpha, β(f)), whose Quantile(r) plus f
// is Apply(f, r) (r = 0 included), and whose doc comment holds the band
// argument.
func (m IIDPareto) Slowest(f float64, rs []float64) float64 {
	return dist.Pareto{Alpha: m.Alpha, Beta: m.Beta(f)}.OrderStat(f, rs, len(rs)-1)
}

func (m IIDPareto) Rho() float64 { return m.RhoV }

func (m IIDPareto) String() string {
	return fmt.Sprintf("iid-pareto(α=%g, ρ=%g)", m.Alpha, m.RhoV)
}

// ParetoFixedBeta adds Pareto(Alpha, BetaFrac·f) noise with an explicit scale
// fraction instead of the Eq. 17 coupling. It admits Alpha <= 1 (infinite
// mean), which the estimator ablation uses to stress the mean operator.
type ParetoFixedBeta struct {
	Alpha    float64
	BetaFrac float64
}

// NewParetoFixedBeta validates parameters: Alpha > 0 and BetaFrac > 0.
func NewParetoFixedBeta(alpha, betaFrac float64) (ParetoFixedBeta, error) {
	if !(alpha > 0) {
		return ParetoFixedBeta{}, fmt.Errorf("noise: alpha must be positive, got %g", alpha)
	}
	if !(betaFrac > 0) {
		return ParetoFixedBeta{}, fmt.Errorf("noise: betaFrac must be positive, got %g", betaFrac)
	}
	return ParetoFixedBeta{Alpha: alpha, BetaFrac: betaFrac}, nil
}

func (m ParetoFixedBeta) Perturb(f float64, rng *rand.Rand) float64 {
	if f <= 0 {
		return f
	}
	p := dist.Pareto{Alpha: m.Alpha, Beta: m.BetaFrac * f}
	return f + p.Sample(rng)
}

// Rho reports 0: the fixed-β model is not tied to an idle-throughput level.
func (m ParetoFixedBeta) Rho() float64 { return 0 }

func (m ParetoFixedBeta) String() string {
	return fmt.Sprintf("pareto-fixed(α=%g, β/f=%g)", m.Alpha, m.BetaFrac)
}

// TwoPriorityQueue simulates the §4.1 machine: the application is the
// second-priority job; first-priority jobs arrive Poisson(Lambda) with
// service times from Service and preempt it. The observed time is the first
// time y with y = f + Σ service of arrivals before y.
type TwoPriorityQueue struct {
	Lambda  float64
	Service dist.Distribution
	rho     float64
}

// NewTwoPriorityQueue validates stability: rho = Lambda·E[Service] must be
// < 0.95 and the service mean finite. Lambda = 0 yields a noiseless model.
func NewTwoPriorityQueue(lambda float64, service dist.Distribution) (*TwoPriorityQueue, error) {
	if lambda < 0 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("noise: lambda must be non-negative, got %g", lambda)
	}
	if lambda == 0 {
		return &TwoPriorityQueue{Lambda: 0, Service: service}, nil
	}
	mean := service.Mean()
	if math.IsInf(mean, 1) || math.IsNaN(mean) {
		return nil, fmt.Errorf("noise: service distribution %v has no finite mean; the queue is unstable", service)
	}
	rho := lambda * mean
	if rho >= 0.95 {
		return nil, fmt.Errorf("noise: utilisation ρ = %g too close to saturation (need < 0.95)", rho)
	}
	return &TwoPriorityQueue{Lambda: lambda, Service: service, rho: rho}, nil
}

// Perturb runs the event simulation: starting from completion target f, each
// first-priority arrival strictly before the current completion time pushes
// completion out by its service time.
func (m *TwoPriorityQueue) Perturb(f float64, rng *rand.Rand) float64 {
	if m.Lambda == 0 || f <= 0 {
		return f
	}
	y := f
	t := rng.ExpFloat64() / m.Lambda // first arrival
	for t < y {
		s := m.Service.Sample(rng)
		if s < 0 {
			s = 0
		}
		y += s
		t += rng.ExpFloat64() / m.Lambda
	}
	return y
}

// Rho returns λ·E[S], the idle system throughput of §4.1.
func (m *TwoPriorityQueue) Rho() float64 { return m.rho }

func (m *TwoPriorityQueue) String() string {
	return fmt.Sprintf("two-priority(λ=%g, S=%v, ρ=%g)", m.Lambda, m.Service, m.rho)
}

// Spike wraps a base model and with probability P replaces the observation
// with +Inf, modelling a hung node. Used for failure-injection tests.
type Spike struct {
	Base Model
	P    float64
}

func (m Spike) Perturb(f float64, rng *rand.Rand) float64 {
	if rng.Float64() < m.P {
		return math.Inf(1)
	}
	return m.Base.Perturb(f, rng)
}

func (m Spike) Rho() float64   { return m.Base.Rho() }
func (m Spike) String() string { return fmt.Sprintf("spike(p=%g, %v)", m.P, m.Base) }

// GenerateTrace returns n observations of a fixed-parameter step with
// noise-free time f under model m — the §4.3 methodology for producing the
// Fig. 3 run-time traces.
func GenerateTrace(m Model, f float64, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.Perturb(f, rng)
	}
	return out
}

// Transform is a Model whose Perturb transforms at most one uniform draw:
// Perturb(f, rng) is f, with no draw, when !Draws(f), and otherwise
// Apply(f, rng.Float64()). A cluster simulator that needs only the largest
// of many such values, the barrier's step time, still draws every uniform
// from its stream in order but hands them to Slowest, which may skip the
// transforms that cannot win. Simulators find it by type assertion, as
// they find StepAware.
type Transform interface {
	Model
	Draws(f float64) bool
	Apply(f, r float64) float64
	// Slowest returns max Apply(f, r) over the non-empty rs bit for bit.
	Slowest(f float64, rs []float64) float64
}

// StepAware models draw state once per cluster time step, shared by every
// processor in that step. The paper's own traces motivate this: Fig. 3 shows
// "high correlation and similarity between the curves" across processors,
// i.e. the dominant interference (system daemons, network events) hits the
// whole machine at once. Cluster simulators call BeginStep before the
// per-processor Perturb calls of a step.
type StepAware interface {
	Model
	// BeginStep draws the step's shared state from rng.
	BeginStep(rng *rand.Rand)
}

// SharedIIDPareto is the machine-wide variant of IIDPareto: one unit-Pareto
// multiplier U_k is drawn per time step, and every observation in that step
// sees n = β(f)·U_k with β from Eq. 17, so E[n] = ρ/(1-ρ)·f exactly as in
// the i.i.d. model, but all processors spike together.
type SharedIIDPareto struct {
	Alpha float64
	RhoV  float64
	unit  float64 // current step's unit-Pareto draw
}

// NewSharedIIDPareto validates parameters (alpha > 1, rho in [0, 1)).
func NewSharedIIDPareto(alpha, rho float64) (*SharedIIDPareto, error) {
	base, err := NewIIDPareto(alpha, rho)
	if err != nil {
		return nil, err
	}
	return &SharedIIDPareto{Alpha: base.Alpha, RhoV: base.RhoV, unit: 1}, nil
}

// BeginStep draws the shared unit-Pareto multiplier for the step.
func (m *SharedIIDPareto) BeginStep(rng *rand.Rand) {
	u := 1 - rng.Float64()
	m.unit = math.Pow(u, -1/m.Alpha)
}

// Beta returns the Eq. 17 scale for a step of noise-free time f.
func (m *SharedIIDPareto) Beta(f float64) float64 {
	return (m.Alpha - 1) * m.RhoV / ((1 - m.RhoV) * m.Alpha) * f
}

func (m *SharedIIDPareto) Perturb(f float64, _ *rand.Rand) float64 {
	if m.RhoV == 0 || f <= 0 {
		return f
	}
	return f + m.Beta(f)*m.unit
}

func (m *SharedIIDPareto) Rho() float64 { return m.RhoV }

func (m *SharedIIDPareto) String() string {
	return fmt.Sprintf("shared-pareto(α=%g, ρ=%g)", m.Alpha, m.RhoV)
}

// Composite sums the perturbations of several models:
// y = f + Σ_i (model_i(f) - f). It is StepAware when any component is. The
// variability study uses a composite of a machine-wide heavy-tailed
// component (the correlated big spikes of Fig. 3) and per-processor
// house-keeping noise (the independent small spikes).
type Composite struct {
	Models []Model
}

// BeginStep forwards to every StepAware component.
func (c Composite) BeginStep(rng *rand.Rand) {
	for _, m := range c.Models {
		if sa, ok := m.(StepAware); ok {
			sa.BeginStep(rng)
		}
	}
}

func (c Composite) Perturb(f float64, rng *rand.Rand) float64 {
	y := f
	for _, m := range c.Models {
		y += m.Perturb(f, rng) - f
	}
	if y < 0 {
		return 0
	}
	return y
}

// Rho sums the component utilisations (interference sources stack).
func (c Composite) Rho() float64 {
	var r float64
	for _, m := range c.Models {
		r += m.Rho()
	}
	return r
}

func (c Composite) String() string {
	return fmt.Sprintf("composite(%d models)", len(c.Models))
}

// SharedBurst models machine-wide interference bursts: once per time step,
// with probability P, a burst of Pareto(Alpha, Beta) seconds delays every
// processor in that step by the same absolute amount. Unlike SharedIIDPareto
// the delay does not scale with the application's step time — a system
// daemon runs for however long it runs. This is the "big correlated spikes"
// component of the Fig. 3 traces.
type SharedBurst struct {
	P     float64
	Alpha float64
	Beta  float64
	cur   float64 // current step's burst length (0 = no burst)
}

// NewSharedBurst validates parameters: P in [0, 1], Alpha > 0, Beta > 0.
func NewSharedBurst(p, alpha, beta float64) (*SharedBurst, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("noise: burst probability must be in [0, 1], got %g", p)
	}
	if _, err := dist.NewPareto(alpha, beta); err != nil {
		return nil, err
	}
	return &SharedBurst{P: p, Alpha: alpha, Beta: beta}, nil
}

// BeginStep decides whether this step carries a burst and draws its length.
func (m *SharedBurst) BeginStep(rng *rand.Rand) {
	if rng.Float64() < m.P {
		m.cur = dist.Pareto{Alpha: m.Alpha, Beta: m.Beta}.Sample(rng)
	} else {
		m.cur = 0
	}
}

func (m *SharedBurst) Perturb(f float64, _ *rand.Rand) float64 { return f + m.cur }

// Rho reports the long-run fraction of time consumed by bursts relative to a
// unit-time step, clamped below 1; approximate, for NTT normalisation only.
func (m *SharedBurst) Rho() float64 {
	mean := dist.Pareto{Alpha: m.Alpha, Beta: m.Beta}.Mean()
	if math.IsInf(mean, 1) {
		return 0
	}
	r := m.P * mean / (1 + m.P*mean)
	return r
}

func (m *SharedBurst) String() string {
	return fmt.Sprintf("shared-burst(p=%g, Pareto(%g, %g))", m.P, m.Alpha, m.Beta)
}
