package cluster_test

import (
	"math"
	"testing"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// bowl mirrors the in-package test helper for the external test package.
func bowl() objective.Function {
	s := space.MustNew(space.IntParam("a", 0, 10), space.IntParam("b", 0, 10))
	return objective.NewSphere(s, space.Point{5, 5}, 1)
}

func TestNewAsyncValidation(t *testing.T) {
	if _, err := cluster.NewAsync(0, noise.None{}, 1); err == nil {
		t.Error("p=0 should fail")
	}
	s, err := cluster.NewAsync(4, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.P() != 4 || s.Makespan() != 0 {
		t.Error("fresh sim state")
	}
}

func TestAsyncSubmitValidation(t *testing.T) {
	s, _ := cluster.NewAsync(2, noise.None{}, 1)
	if _, err := s.Submit(bowl(), space.Point{5, 5}, 0); err == nil {
		t.Error("samples=0 should fail")
	}
	if _, err := s.Submit(nil, space.Point{5, 5}, 1); err == nil {
		t.Error("nil function should fail")
	}
}

func TestAsyncClocksAdvanceIndependently(t *testing.T) {
	f := bowl()
	s, _ := cluster.NewAsync(2, noise.None{}, 1)
	// Two requests land on different processors (least-loaded placement).
	if _, err := s.Submit(f, space.Point{5, 5}, 1); err != nil { // f=1
		t.Fatal(err)
	}
	if _, err := s.Submit(f, space.Point{0, 0}, 1); err != nil { // f=1.5
		t.Fatal(err)
	}
	c0, c1 := s.Clock(0), s.Clock(1)
	if c0 == c1 {
		t.Errorf("clocks should differ for different costs: %g vs %g", c0, c1)
	}
	if math.Abs(s.Makespan()-1.5) > 1e-12 {
		t.Errorf("makespan = %g, want 1.5", s.Makespan())
	}
	// No barrier: total virtual work is 2.5, but makespan is only 1.5 —
	// the synchronised simulator would have charged max(1, 1.5) = 1.5 for
	// one step of both, identical here, but with K samples the async sim
	// pipelines (covered below).
}

func TestAsyncCompletionsInTimeOrder(t *testing.T) {
	f := bowl()
	m, _ := noise.NewIIDPareto(1.7, 0.3)
	s, _ := cluster.NewAsync(4, m, 7)
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(f, space.Point{5, 5}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 30 {
		t.Fatalf("pending = %d, want 30", s.Pending())
	}
	prev := -1.0
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		if c.Finish < prev {
			t.Fatalf("completions out of order: %g after %g", c.Finish, prev)
		}
		prev = c.Finish
		if c.Value <= 0 {
			t.Fatalf("non-positive observation %g", c.Value)
		}
	}
	if s.Pending() != 0 {
		t.Error("queue should drain")
	}
}

func TestAsyncLeastLoadedPlacement(t *testing.T) {
	f := bowl()
	s, _ := cluster.NewAsync(2, noise.None{}, 1)
	// First request: expensive config on proc 0.
	if _, err := s.Submit(f, space.Point{0, 0}, 4); err != nil { // 4 * 1.5 = 6
		t.Fatal(err)
	}
	// Next requests should pile onto proc 1 until it catches up.
	if _, err := s.Submit(f, space.Point{5, 5}, 1); err != nil {
		t.Fatal(err)
	}
	if s.Clock(1) == 0 {
		t.Error("second request should go to the idle processor")
	}
}

func TestAsyncEvaluatorMatchesDirectValues(t *testing.T) {
	f := bowl()
	s, _ := cluster.NewAsync(4, noise.None{}, 1)
	ev := &cluster.AsyncEvaluator{Sim: s, F: f, Est: sample.Single{}}
	vals, err := ev.Eval([]space.Point{{5, 5}, {0, 0}, {10, 5}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 1.25}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Errorf("val[%d] = %g, want %g", i, vals[i], w)
		}
	}
	if _, err := ev.Eval(nil); err == nil {
		t.Error("empty batch should fail")
	}
}

// The async advantage: with heterogeneous candidate costs and multiple
// samples, the makespan is lower than the barrier-synchronised Total_Time
// because cheap candidates do not wait for expensive ones.
func TestAsyncBeatsBarrierOnHeterogeneousBatch(t *testing.T) {
	s := space.MustNew(space.IntParam("a", 0, 10), space.IntParam("b", 0, 10))
	f := objective.NewSphere(s, space.Point{0, 0}, 0.1) // corner-heavy costs
	// Two waves on 4 processors, with one expensive straggler per wave: the
	// barrier charges max per step in both waves, while the async placement
	// lets the cheap work pack around the two stragglers.
	pts := []space.Point{
		{0, 0}, {1, 1}, {1, 0}, {10, 10}, // wave 1: straggler (10,10)
		{0, 1}, {2, 1}, {1, 2}, {9, 9}, // wave 2: straggler (9,9)
	}
	const k = 4

	// Barrier: every sample step costs the max over the four candidates.
	barrier, _ := cluster.New(4, noise.None{}, 1)
	est, _ := sample.NewMinOfK(k)
	bev := cluster.NewEvaluator(barrier, f, est)
	if _, err := bev.Eval(pts); err != nil {
		t.Fatal(err)
	}

	// Async: each candidate occupies one processor independently.
	async, _ := cluster.NewAsync(4, noise.None{}, 1)
	aev := &cluster.AsyncEvaluator{Sim: async, F: f, Est: est}
	if _, err := aev.Eval(pts); err != nil {
		t.Fatal(err)
	}

	if async.Makespan() >= barrier.TotalTime() {
		t.Errorf("async makespan %g should beat barrier total %g", async.Makespan(), barrier.TotalTime())
	}
}

// PRO runs unmodified on the async evaluator (core.Evaluator contract).
func TestPROOnAsyncEvaluator(t *testing.T) {
	sp := space.MustNew(space.IntParam("a", 0, 100), space.IntParam("b", 0, 100))
	f := objective.NewSphere(sp, space.Point{30, 60}, 1)
	m, _ := noise.NewIIDPareto(1.7, 0.2)
	sim, _ := cluster.NewAsync(8, m, 3)
	est, _ := sample.NewMinOfK(2)
	ev := &cluster.AsyncEvaluator{Sim: sim, F: f, Est: est}

	alg, err := core.NewPRO(core.Options{Space: sp})
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300 && !alg.Converged(); i++ {
		if _, err := alg.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	best, _ := alg.Best()
	if math.Hypot(best[0]-30, best[1]-60) > 10 {
		t.Errorf("async-tuned best %v far from (30, 60)", best)
	}
	if sim.Makespan() <= 0 {
		t.Error("makespan should have advanced")
	}
}
