package stats

import (
	"math"
	"testing"

	"paratune/internal/dist"
)

func TestStdErr(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	want := Summarize(xs).Std / math.Sqrt(5)
	if got := StdErr(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdErr = %g, want %g", got, want)
	}
	if !math.IsNaN(StdErr([]float64{1})) {
		t.Error("single sample should give NaN")
	}
}

func TestQQPointsStraightLineForMatchingDist(t *testing.T) {
	rng := dist.NewRNG(3)
	d := dist.Exponential{Lambda: 2}
	xs := sampleN(d, rng, 50000)
	th, em, err := QQPoints(xs, d, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(th) != 20 || len(em) != 20 {
		t.Fatalf("lengths %d/%d", len(th), len(em))
	}
	// Slope of empirical vs theoretical should be ≈ 1.
	fit, err := FitLine(th, em)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1) > 0.1 || fit.R2 < 0.99 {
		t.Errorf("QQ fit slope %g R2 %g, want ≈ 1 / > 0.99", fit.Slope, fit.R2)
	}
}

func TestQQPointsDetectHeavierTail(t *testing.T) {
	rng := dist.NewRNG(4)
	heavy := sampleN(dist.Pareto{Alpha: 1.2, Beta: 1}, rng, 50000)
	// Compare against an exponential reference with the same median.
	ref := dist.Exponential{Lambda: math.Ln2 / Percentile(heavy, 0.5)}
	th, em, err := QQPoints(heavy, ref, 40)
	if err != nil {
		t.Fatal(err)
	}
	// In the upper tail the empirical quantiles must exceed the reference.
	last := len(th) - 1
	if em[last] <= th[last]*1.5 {
		t.Errorf("upper-tail QQ point %g vs reference %g should diverge upward", em[last], th[last])
	}
}

func TestQQPointsValidation(t *testing.T) {
	if _, _, err := QQPoints(nil, dist.Exponential{Lambda: 1}, 10); err == nil {
		t.Error("empty sample should fail")
	}
	if _, _, err := QQPoints([]float64{1, 2}, dist.Exponential{Lambda: 1}, 1); err == nil {
		t.Error("k < 2 should fail")
	}
}
