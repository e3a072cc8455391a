package core

import (
	"math"
	"testing"

	"paratune/internal/cluster"
	"paratune/internal/fault"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func TestRunOnlineValidation(t *testing.T) {
	sp := bowlSpace()
	f := objective.NewSphere(sp, nil, 0)
	sim, _ := cluster.New(4, noise.None{}, 1)
	p, _ := NewPRO(Options{Space: sp})
	if _, err := RunOnline(nil, OnlineConfig{Sim: sim, F: f, Budget: 10}); err == nil {
		t.Error("nil algorithm should fail")
	}
	if _, err := RunOnline(p, OnlineConfig{F: f, Budget: 10}); err == nil {
		t.Error("nil sim should fail")
	}
	if _, err := RunOnline(p, OnlineConfig{Sim: sim, Budget: 10}); err == nil {
		t.Error("nil f should fail")
	}
	if _, err := RunOnline(p, OnlineConfig{Sim: sim, F: f, Budget: 0}); err == nil {
		t.Error("zero budget should fail")
	}
}

func TestRunOnlineExactBudget(t *testing.T) {
	sp := bowlSpace()
	f := objective.NewSphere(sp, space.Point{10, 10}, 1)
	sim, _ := cluster.New(8, noise.None{}, 1)
	p, _ := NewPRO(Options{Space: sp})
	res, err := RunOnline(p, OnlineConfig{Sim: sim, F: f, Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 100 || len(res.StepTimes) != 100 {
		t.Errorf("steps = %d, stepTimes = %d", res.Steps, len(res.StepTimes))
	}
	var sum float64
	for _, s := range res.StepTimes {
		sum += s
	}
	if math.Abs(sum-res.TotalTime) > 1e-9 {
		t.Errorf("TotalTime %g != sum of step times %g", res.TotalTime, sum)
	}
	if res.NTT != res.TotalTime { // rho = 0
		t.Errorf("NTT %g != TotalTime %g at rho=0", res.NTT, res.TotalTime)
	}
}

// Processors that crash during tuning stay dead: the production phase runs
// the best configuration on the survivors and still fills the budget.
func TestRunOnlineProductionAfterCrashes(t *testing.T) {
	sp := bowlSpace()
	f := objective.NewSphere(sp, space.Point{50, 50}, 1)
	sim, _ := cluster.New(8, noise.None{}, 1)
	in, err := fault.New(fault.Config{Seed: 1, PCrash: 0.05, MaxCrashes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetFaults(in)
	p, _ := NewPRO(Options{Space: sp})
	res, err := RunOnline(p, OnlineConfig{Sim: sim, F: f, Budget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Live() != 6 || res.ConvergedAtStep < 0 || res.Steps != 200 {
		t.Errorf("live = %d, converged at step %d, steps = %d; want 6 live, converged, 200 steps",
			sim.Live(), res.ConvergedAtStep, res.Steps)
	}
}

func TestRunOnlineConvergesAndFills(t *testing.T) {
	sp := bowlSpace()
	f := objective.NewSphere(sp, space.Point{50, 50}, 1)
	sim, _ := cluster.New(8, noise.None{}, 1)
	p, _ := NewPRO(Options{Space: sp})
	res, err := RunOnline(p, OnlineConfig{Sim: sim, F: f, Budget: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAtStep < 0 {
		t.Fatal("noiseless bowl should converge within 400 steps")
	}
	if !res.Best.Equal(space.Point{50, 50}) {
		t.Errorf("best = %v", res.Best)
	}
	// After convergence, the remaining steps run at f(best) = 1.
	for k := res.ConvergedAtStep; k < len(res.StepTimes); k++ {
		if math.Abs(res.StepTimes[k]-1) > 1e-12 {
			t.Fatalf("production step %d ran at %g, want 1", k, res.StepTimes[k])
		}
	}
	if res.TrueValue != 1 {
		t.Errorf("TrueValue = %g", res.TrueValue)
	}
}

func TestRunOnlineWithNoiseAndMinSampling(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.3)
	sim, _ := cluster.New(16, m, 7)
	est, _ := sample.NewMinOfK(3)
	p, _ := NewPRO(Options{Space: db.Space()})
	res, err := RunOnline(p, OnlineConfig{Sim: sim, F: db, Est: est, Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 100 {
		t.Errorf("steps = %d", res.Steps)
	}
	// NTT normalisation must use rho = 0.3.
	if math.Abs(res.NTT-0.7*res.TotalTime) > 1e-9 {
		t.Errorf("NTT = %g, want %g", res.NTT, 0.7*res.TotalTime)
	}
}

// Determinism: identical seeds and configs give identical results.
func TestRunOnlineDeterministic(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.2)
	run := func() *Result {
		sim, _ := cluster.New(8, m, 99)
		est, _ := sample.NewMinOfK(2)
		p, _ := NewPRO(Options{Space: db.Space()})
		res, err := RunOnline(p, OnlineConfig{Sim: sim, F: db, Est: est, Budget: 80})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalTime != b.TotalTime || !a.Best.Equal(b.Best) {
		t.Errorf("non-deterministic: %g/%v vs %g/%v", a.TotalTime, a.Best, b.TotalTime, b.Best)
	}
}

// With zero noise, taking more samples only wastes steps — the Fig. 10
// rho=0 line rises with K.
func TestRunOnlineSamplingCostAtZeroNoise(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	ntts := make([]float64, 0, 3)
	for _, k := range []int{1, 3, 5} {
		sim, _ := cluster.New(8, noise.None{}, 3)
		est, _ := sample.NewMinOfK(k)
		p, _ := NewPRO(Options{Space: db.Space()})
		res, err := RunOnline(p, OnlineConfig{Sim: sim, F: db, Est: est, Budget: 100})
		if err != nil {
			t.Fatal(err)
		}
		ntts = append(ntts, res.NTT)
	}
	if !(ntts[0] < ntts[2]) {
		t.Errorf("K=1 NTT %g should beat K=5 NTT %g at rho=0 (Fig. 10)", ntts[0], ntts[2])
	}
}
