package noise

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"paratune/internal/dist"
	"paratune/internal/stats"
)

func TestNone(t *testing.T) {
	m := None{}
	rng := dist.NewRNG(1)
	if m.Perturb(3.5, rng) != 3.5 || m.Rho() != 0 {
		t.Error("None must be the identity")
	}
}

func TestNewIIDParetoValidation(t *testing.T) {
	cases := []struct {
		alpha, rho float64
		ok         bool
	}{
		{1.7, 0.2, true},
		{1.7, 0, true},
		{1.0, 0.2, false},  // Eq. 17 needs alpha > 1
		{0.5, 0.2, false},  // infinite mean
		{1.7, -0.1, false}, // negative rho
		{1.7, 1.0, false},  // saturated
		{math.NaN(), 0.2, false},
		{1.7, math.NaN(), false},
	}
	for _, c := range cases {
		_, err := NewIIDPareto(c.alpha, c.rho)
		if (err == nil) != c.ok {
			t.Errorf("NewIIDPareto(%g, %g) err=%v, want ok=%v", c.alpha, c.rho, err, c.ok)
		}
	}
}

// Eq. 17 must make E[n] = rho/(1-rho) * f, i.e. E[y] = f/(1-rho) (Eq. 6).
func TestIIDParetoMeanMatchesEq6(t *testing.T) {
	m, err := NewIIDPareto(3.0, 0.25) // alpha=3 for finite variance, faster convergence
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(2024)
	f := 2.0
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.Perturb(f, rng)
	}
	got := sum / n
	want := f / (1 - 0.25)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("E[y] = %g, want %g (Eq. 6)", got, want)
	}
}

func TestIIDParetoBetaLinearInF(t *testing.T) {
	m, _ := NewIIDPareto(1.7, 0.2)
	if b1, b2 := m.Beta(1), m.Beta(3); math.Abs(b2-3*b1) > 1e-12 {
		t.Errorf("beta not linear in f: β(1)=%g β(3)=%g", b1, b2)
	}
	// Explicit Eq. 17 value: (0.7*0.2)/(0.8*1.7).
	want := 0.7 * 0.2 / (0.8 * 1.7)
	if math.Abs(m.Beta(1)-want) > 1e-12 {
		t.Errorf("Beta(1) = %g, want %g", m.Beta(1), want)
	}
}

func TestIIDParetoZeroRhoAndZeroF(t *testing.T) {
	m, _ := NewIIDPareto(1.7, 0)
	rng := dist.NewRNG(3)
	if m.Perturb(5, rng) != 5 {
		t.Error("rho=0 must be noiseless")
	}
	m2, _ := NewIIDPareto(1.7, 0.3)
	if m2.Perturb(0, rng) != 0 {
		t.Error("f=0 must stay 0")
	}
}

// TestIIDParetoPerturbIsApply pins the draw/transform split: Perturb draws
// one uniform exactly when Draws, returns Apply of it, and gives the same
// bits as the Pareto(Alpha, β(f)) sample it has always added.
func TestIIDParetoPerturbIsApply(t *testing.T) {
	for _, rho := range []float64{0, 0.3} {
		m, _ := NewIIDPareto(1.7, rho)
		a, b, c := dist.NewRNG(5), dist.NewRNG(5), dist.NewRNG(5)
		for i := 0; i < 1000; i++ {
			f := []float64{2, 0, -1, 0.7}[i%4]
			got := m.Perturb(f, a)
			want, sample := f, f
			if m.Draws(f) {
				want = m.Apply(f, b.Float64())
				sample = f + dist.Pareto{Alpha: m.Alpha, Beta: m.Beta(f)}.Sample(c)
			}
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(sample) {
				t.Fatalf("rho=%g f=%g draw %d: Perturb %v, Apply %v, Pareto sample %v", rho, f, i, got, want, sample)
			}
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("rho=%g: Perturb and Apply left the streams at different draws", rho)
		}
	}
}

// slowestByApply is the reference Slowest: transform every draw.
func slowestByApply(m IIDPareto, f float64, rs []float64) float64 {
	y := math.Inf(-1)
	for _, r := range rs {
		if v := m.Apply(f, r); v > y {
			y = v
		}
	}
	return y
}

// TestIIDParetoSlowestBand checks that Slowest's band keeps every draw that
// rounding can make the maximum. The adversarial pairs are adjacent draws
// where math.Pow's rounding inverts the order, so transforming only the
// smallest 1-r would return the wrong maximum; the binade-edge draws put
// 1-r on both sides of a power of two.
func TestIIDParetoSlowestBand(t *testing.T) {
	m02, _ := NewIIDPareto(1.7, 0.2)
	check := func(m IIDPareto, f float64, rs []float64) {
		t.Helper()
		if got, want := m.Slowest(f, rs), slowestByApply(m, f, rs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("α=%g ρ=%g f=%g draws %v: Slowest %v, max of Apply %v", m.Alpha, m.RhoV, f, rs, got, want)
		}
	}
	// Adjacent draws r < r' whose larger 1-r transforms to the larger time.
	adversarial := [][2]float64{{0.5037642245925453, 0.5037642245925454}}
	rng := dist.NewRNG(11)
	for len(adversarial) < 20 {
		r := 0.5 + rng.Float64()/2
		if next := math.Nextafter(r, 1); next < 1 && m02.Apply(1, r) > m02.Apply(1, next) {
			adversarial = append(adversarial, [2]float64{r, next})
		}
	}
	for _, pair := range adversarial {
		if !(m02.Apply(1, pair[0]) > m02.Apply(1, pair[1])) {
			t.Fatalf("draws %v are not an inverted pair", pair)
		}
		check(m02, 1, pair[:])
		check(m02, 1, []float64{pair[1], 0.1, pair[0], 0.3})
	}
	// Binade edges: 1-r = 2^-k and the draws either side of it.
	for _, rho := range []float64{0.2, 0.4} {
		m, _ := NewIIDPareto(1.7, rho)
		for k := 1; k <= 52; k++ {
			r := 1 - math.Ldexp(1, -k)
			rs := []float64{math.Nextafter(r, 0), r, math.Nextafter(r, 1)}
			if rs[2] >= 1 {
				rs = rs[:2]
			}
			for _, f := range []float64{1, 3.7, 1e-3} {
				check(m, f, rs)
			}
		}
	}
	// Clusters of adjacent draws among random ones, and an α so large the
	// band covers every draw.
	huge, _ := NewIIDPareto(0x1p21, 0.4)
	for i := 0; i < 2000; i++ {
		base := rng.Float64()
		rs := []float64{base}
		for j := 0; j < 1+i%6; j++ {
			rs = append(rs, math.Nextafter(rs[len(rs)-1], 1), rng.Float64())
		}
		if slices.Max(rs) >= 1 {
			continue
		}
		check(m02, 1+float64(i%7), rs)
		check(huge, 1, rs)
	}
}

func TestIIDParetoAlwaysInflates(t *testing.T) {
	m, _ := NewIIDPareto(1.7, 0.3)
	rng := dist.NewRNG(4)
	for i := 0; i < 10000; i++ {
		if y := m.Perturb(2, rng); y <= 2 {
			t.Fatalf("observation %g not above f; noise must be positive", y)
		}
	}
}

func TestParetoFixedBeta(t *testing.T) {
	if _, err := NewParetoFixedBeta(0, 0.1); err == nil {
		t.Error("alpha=0 should fail")
	}
	if _, err := NewParetoFixedBeta(0.9, 0); err == nil {
		t.Error("betaFrac=0 should fail")
	}
	m, err := NewParetoFixedBeta(0.9, 0.05) // infinite mean allowed here
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(5)
	for i := 0; i < 1000; i++ {
		if y := m.Perturb(1, rng); y < 1.05 {
			t.Fatalf("observation %g below f+beta", y)
		}
	}
	if m.Perturb(0, rng) != 0 {
		t.Error("f=0 passthrough")
	}
}

func TestTwoPriorityQueueValidation(t *testing.T) {
	if _, err := NewTwoPriorityQueue(-1, dist.Exponential{Lambda: 1}); err == nil {
		t.Error("negative lambda should fail")
	}
	if _, err := NewTwoPriorityQueue(2, dist.Exponential{Lambda: 1}); err == nil {
		t.Error("rho=2 should fail")
	}
	if _, err := NewTwoPriorityQueue(0.5, dist.Pareto{Alpha: 0.9, Beta: 1}); err == nil {
		t.Error("infinite-mean service should fail")
	}
	q, err := NewTwoPriorityQueue(0, dist.Exponential{Lambda: 1})
	if err != nil {
		t.Fatalf("lambda=0 should be fine: %v", err)
	}
	rng := dist.NewRNG(8)
	if q.Perturb(4, rng) != 4 {
		t.Error("lambda=0 queue must be noiseless")
	}
}

// Eq. 6: the two-priority queue's expected observed time is f/(1-rho).
func TestTwoPriorityQueueMeanSlowdown(t *testing.T) {
	service := dist.Exponential{Lambda: 10}   // mean 0.1
	q, err := NewTwoPriorityQueue(2, service) // rho = 0.2
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Rho()-0.2) > 1e-12 {
		t.Fatalf("Rho = %g, want 0.2", q.Rho())
	}
	rng := dist.NewRNG(9)
	f := 1.0
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += q.Perturb(f, rng)
	}
	got := sum / n
	want := f / (1 - 0.2)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("E[y] = %g, want %g (Eq. 6)", got, want)
	}
}

func TestTwoPriorityQueueNeverShrinks(t *testing.T) {
	q, err := NewTwoPriorityQueue(1, dist.Exponential{Lambda: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(10)
	for i := 0; i < 5000; i++ {
		if y := q.Perturb(0.5, rng); y < 0.5 {
			t.Fatalf("observed time %g below noise-free time", y)
		}
	}
	if q.Perturb(0, rng) != 0 {
		t.Error("f=0 passthrough")
	}
}

// signedService is a test-local service distribution, uniform on
// [-0.15, 0.25]: its mean is 0.05, and 37.5% of its samples are negative.
type signedService struct{}

func (signedService) Sample(rng *rand.Rand) float64 { return -0.15 + 0.4*rng.Float64() }
func (signedService) CDF(x float64) float64         { return math.Min(1, math.Max(0, (x+0.15)/0.4)) }
func (signedService) Quantile(p float64) float64    { return -0.15 + 0.4*p }
func (signedService) Mean() float64                 { return 0.05 }
func (signedService) Variance() float64             { return 0.4 * 0.4 / 12 }
func (signedService) String() string                { return "U(-0.15, 0.25)" }

// Negative service samples must be treated as zero, not shrink the step.
func TestTwoPriorityQueueNegativeService(t *testing.T) {
	q, err := NewTwoPriorityQueue(5, signedService{})
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(11)
	for i := 0; i < 5000; i++ {
		if y := q.Perturb(1, rng); y < 1 {
			t.Fatalf("negative service shrank the step: %g", y)
		}
	}
}

func TestSpike(t *testing.T) {
	always := Spike{Base: None{}, P: 1}
	rng := dist.NewRNG(13)
	if !math.IsInf(always.Perturb(1, rng), 1) {
		t.Error("P=1 spike must return +Inf")
	}
	never := Spike{Base: None{}, P: 0}
	if never.Perturb(1, rng) != 1 {
		t.Error("P=0 spike must pass through")
	}
	if always.Rho() != 0 {
		t.Error("spike Rho delegates to base")
	}
}

func TestGenerateTrace(t *testing.T) {
	m, _ := NewIIDPareto(1.7, 0.2)
	rng := dist.NewRNG(14)
	tr := GenerateTrace(m, 2, 800, rng)
	if len(tr) != 800 {
		t.Fatalf("trace length %d", len(tr))
	}
	for _, y := range tr {
		if y <= 2 {
			t.Fatal("trace value at or below noise-free time")
		}
	}
}

// The §4.3 pipeline on model output: an IIDPareto(1.7) trace must register
// as heavy-tailed by the log-log criterion.
func TestTraceIsDetectablyHeavyTailed(t *testing.T) {
	m, _ := NewIIDPareto(1.7, 0.3)
	rng := dist.NewRNG(15)
	tr := GenerateTrace(m, 2, 50000, rng)
	// Analyse the noise component (y - f) as the paper analyses run times.
	noise := make([]float64, len(tr))
	for i, y := range tr {
		noise[i] = y - 2
	}
	fit, err := stats.LogLogTailFit(noise, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !fit.HeavyTailed() {
		t.Errorf("model trace not detected heavy-tailed: %+v", fit)
	}
	if math.Abs(fit.Alpha-1.7) > 0.2 {
		t.Errorf("recovered alpha = %g, want ≈ 1.7", fit.Alpha)
	}
}

func TestStrings(t *testing.T) {
	q, _ := NewTwoPriorityQueue(1, dist.Exponential{Lambda: 5})
	ms := []Model{
		None{}, IIDPareto{1.7, 0.2}, ParetoFixedBeta{0.9, 0.1},
		q, Spike{None{}, 0.01},
	}
	for _, m := range ms {
		if m.String() == "" {
			t.Errorf("%T has empty String", m)
		}
	}
}

func TestSharedIIDParetoValidation(t *testing.T) {
	if _, err := NewSharedIIDPareto(1.0, 0.2); err == nil {
		t.Error("alpha <= 1 should fail")
	}
	if _, err := NewSharedIIDPareto(1.7, 1.0); err == nil {
		t.Error("rho >= 1 should fail")
	}
	m, err := NewSharedIIDPareto(1.7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rho() != 0.2 || m.String() == "" {
		t.Error("accessors")
	}
}

// Within a step (no BeginStep between calls) all processors see the same
// multiplier; across steps the draws differ.
func TestSharedIIDParetoStepSemantics(t *testing.T) {
	m, _ := NewSharedIIDPareto(1.7, 0.3)
	rng := dist.NewRNG(1)
	m.BeginStep(rng)
	a := m.Perturb(2, rng)
	b := m.Perturb(2, rng)
	if a != b {
		t.Errorf("same step, same f: %g != %g", a, b)
	}
	// Proportionality within the step: (y-f)/f identical for different f.
	c := m.Perturb(4, rng)
	if math.Abs((a-2)/2-(c-4)/4) > 1e-12 {
		t.Error("shared multiplier should scale with f")
	}
	m.BeginStep(rng)
	if m.Perturb(2, rng) == a {
		t.Error("new step should redraw (collision vanishingly unlikely)")
	}
}

// The shared model preserves Eq. 6 in expectation across many steps.
func TestSharedIIDParetoMeanMatchesEq6(t *testing.T) {
	m, _ := NewSharedIIDPareto(3.0, 0.25)
	rng := dist.NewRNG(7)
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		m.BeginStep(rng)
		sum += m.Perturb(2, rng)
	}
	want := 2 / (1 - 0.25)
	if got := sum / n; math.Abs(got-want) > 0.01 {
		t.Errorf("E[y] = %g, want %g", got, want)
	}
}

func TestSharedIIDParetoZeroCases(t *testing.T) {
	m, _ := NewSharedIIDPareto(1.7, 0)
	rng := dist.NewRNG(2)
	m.BeginStep(rng)
	if m.Perturb(5, rng) != 5 {
		t.Error("rho=0 must be noiseless")
	}
	m2, _ := NewSharedIIDPareto(1.7, 0.3)
	m2.BeginStep(rng)
	if m2.Perturb(0, rng) != 0 {
		t.Error("f=0 passthrough")
	}
}

// offset is a test-local model that adds a constant, negative ones
// included, so Composite's sum and its clamp at zero show exactly.
type offset float64

func (o offset) Perturb(f float64, _ *rand.Rand) float64 { return f + float64(o) }
func (offset) Rho() float64                              { return 0 }
func (o offset) String() string                          { return fmt.Sprintf("offset(%g)", float64(o)) }

func TestComposite(t *testing.T) {
	shared, _ := NewSharedIIDPareto(1.7, 0.1)
	comp := Composite{Models: []Model{shared, offset(0.5)}}
	rng := dist.NewRNG(3)
	comp.BeginStep(rng)
	y := comp.Perturb(2, rng)
	// Both components add on top of f.
	if y <= 2.5 {
		t.Errorf("composite observation %g should exceed f + 0.5", y)
	}
	if math.Abs(comp.Rho()-0.1) > 1e-12 {
		t.Errorf("composite rho = %g", comp.Rho())
	}
	if comp.String() == "" {
		t.Error("String")
	}
	neg := Composite{Models: []Model{offset(-10)}}
	if neg.Perturb(2, rng) != 0 {
		t.Error("composite should clamp at zero")
	}
}

func TestRhoAccessors(t *testing.T) {
	ip, _ := NewIIDPareto(1.7, 0.25)
	if ip.Rho() != 0.25 {
		t.Error("IIDPareto.Rho")
	}
	pf, _ := NewParetoFixedBeta(0.9, 0.1)
	if pf.Rho() != 0 {
		t.Error("ParetoFixedBeta.Rho")
	}
	if (None{}).Rho() != 0 {
		t.Error("None.Rho")
	}
	if (Spike{Base: ip, P: 0.1}).Rho() != 0.25 {
		t.Error("Spike.Rho should delegate to its base")
	}
}

func TestSharedBurst(t *testing.T) {
	if _, err := NewSharedBurst(-0.1, 1.5, 1); err == nil {
		t.Error("negative probability should fail")
	}
	if _, err := NewSharedBurst(1.5, 1.5, 1); err == nil {
		t.Error("probability > 1 should fail")
	}
	if _, err := NewSharedBurst(0.1, 0, 1); err == nil {
		t.Error("alpha 0 should fail")
	}
	if _, err := NewSharedBurst(0.1, 1.5, 0); err == nil {
		t.Error("beta 0 should fail")
	}
	m, err := NewSharedBurst(1, 1.5, 2) // burst every step
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(5)
	m.BeginStep(rng)
	a := m.Perturb(1, rng)
	b := m.Perturb(3, rng)
	// Absolute burst: same offset regardless of f.
	if math.Abs((a-1)-(b-3)) > 1e-12 {
		t.Errorf("burst should be absolute: offsets %g vs %g", a-1, b-3)
	}
	if a-1 < 2 {
		t.Errorf("burst %g below beta 2", a-1)
	}
	if m.String() == "" {
		t.Error("String")
	}
	if r := m.Rho(); r <= 0 || r >= 1 {
		t.Errorf("Rho = %g, want in (0,1)", r)
	}
	// Infinite-mean bursts report rho 0 (no meaningful utilisation).
	inf, _ := NewSharedBurst(0.5, 0.9, 1)
	if inf.Rho() != 0 {
		t.Error("infinite-mean burst Rho should be 0")
	}
	// No-burst steps pass through.
	quiet, _ := NewSharedBurst(0, 1.5, 2)
	quiet.BeginStep(rng)
	if quiet.Perturb(1, rng) != 1 {
		t.Error("p=0 should never burst")
	}
}

// Shared bursts hit every processor of a cluster step identically.
func TestSharedBurstCorrelatedAcrossProcessors(t *testing.T) {
	m, err := NewSharedBurst(0.5, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(8)
	for step := 0; step < 100; step++ {
		m.BeginStep(rng)
		first := m.Perturb(2, rng)
		for p := 1; p < 8; p++ {
			if got := m.Perturb(2, rng); got != first {
				t.Fatalf("step %d: processor %d saw %g, processor 0 saw %g", step, p, got, first)
			}
		}
	}
}
