package cluster

import (
	"container/heap"
	"math"
	"testing"
	"testing/quick"

	"paratune/internal/dist"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func bowl() objective.Function {
	s := space.MustNew(space.IntParam("a", 0, 10), space.IntParam("b", 0, 10))
	return objective.NewSphere(s, space.Point{5, 5}, 1)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, noise.None{}, 1); err == nil {
		t.Error("p=0 should fail")
	}
	s, err := New(4, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.P() != 4 || s.Model().String() != "none" {
		t.Error("nil model should default to none")
	}
}

func TestRunStepAccounting(t *testing.T) {
	f := bowl()
	sim, _ := New(3, noise.None{}, 1)
	// Values: f(5,5)=1, f(0,0)=1+2*(25/100)=1.5, f(10,5)=1.25.
	obs, err := sim.RunStep(f, []space.Point{{5, 5}, {0, 0}, {10, 5}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("obs = %v", obs)
	}
	if obs[0] != 1 || math.Abs(obs[1]-1.5) > 1e-12 {
		t.Errorf("obs = %v", obs)
	}
	if sim.Steps() != 1 {
		t.Errorf("Steps = %d", sim.Steps())
	}
	// T_1 must be the max observation (Eq. 1).
	if math.Abs(sim.TotalTime()-1.5) > 1e-12 {
		t.Errorf("TotalTime = %g, want 1.5", sim.TotalTime())
	}
}

// TestRunStepEvaluatesEachCandidateOnce runs 64 processors, 60 of them
// replicating 3 candidates round-robin (ParallelSampling) and 4 running
// Fill: each step evaluates f at the 4 distinct points once, not once per
// processor, and every observation equals a per-processor reference loop's
// bit for bit.
func TestRunStepEvaluatesEachCandidateOnce(t *testing.T) {
	f := &objective.Counting{F: bowl()}
	model, err := noise.NewIIDPareto(1.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cands := []space.Point{{2, 3}, {7, 1}, {4, 9}}
	fill := space.Point{5, 5}
	assign := make([]space.Point, 64)
	for k := range assign {
		if assign[k] = cands[k%len(cands)]; k >= 60 {
			assign[k] = fill
		}
	}
	sim, _ := New(64, model, 9)
	ref, _ := New(64, model, 9)
	const steps = 5
	for step := 0; step < steps; step++ {
		obs, err := sim.RunStep(f, assign, len(assign))
		if err != nil {
			t.Fatal(err)
		}
		ref.beginStep()
		for k, x := range assign {
			want := ref.model.Perturb(f.F.Eval(x), ref.rngs[k])
			if math.Float64bits(obs[k]) != math.Float64bits(want) {
				t.Fatalf("step %d processor %d: observed %v, per-processor loop gives %v", step, k, obs[k], want)
			}
		}
	}
	if got := f.Count(); got != 4*steps {
		t.Errorf("%d steps evaluated f %d times, want %d (4 distinct points per step)", steps, got, 4*steps)
	}
}

func TestRunStepValidation(t *testing.T) {
	sim, _ := New(2, noise.None{}, 1)
	if _, err := sim.RunStep(bowl(), nil, 0); err == nil {
		t.Error("empty assignment should fail")
	}
	if _, err := sim.RunStep(bowl(), []space.Point{{1, 1}, {2, 2}, {3, 3}}, 3); err == nil {
		t.Error("oversubscription should fail")
	}
}

func TestTotalTimeAt(t *testing.T) {
	sim, _ := New(1, noise.None{}, 1)
	f := bowl()
	for i := 0; i < 5; i++ {
		if _, err := sim.RunStep(f, []space.Point{{5, 5}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	tt, err := sim.TotalTimeAt(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tt-3) > 1e-12 {
		t.Errorf("TotalTimeAt(3) = %g", tt)
	}
	if _, err := sim.TotalTimeAt(6); err == nil {
		t.Error("k beyond elapsed steps should fail")
	}
	if _, err := sim.TotalTimeAt(-1); err == nil {
		t.Error("negative k should fail")
	}
}

// TestStepTimesView checks that StepTimes shares the reserved record but is
// capped: later steps do not show through it, and an append to it copies
// instead of writing the simulator's next step. A reservation below the
// steps already taken changes nothing.
func TestStepTimesView(t *testing.T) {
	sim, _ := New(1, noise.None{}, 1)
	f := bowl()
	sim.ReserveSteps(10)
	step := func() {
		t.Helper()
		if _, err := sim.RunStep(f, []space.Point{{5, 5}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	st := sim.StepTimes()
	if len(st) != 3 || cap(st) != 3 {
		t.Fatalf("StepTimes len %d cap %d, want 3 and 3", len(st), cap(st))
	}
	_ = append(st, -1)
	step()
	sim.ReserveSteps(2)
	if got := sim.StepTimes(); len(got) != 4 || got[3] != 1 || len(st) != 3 {
		t.Errorf("after a 4th step: record %v, earlier view %v", got, st)
	}
}

func TestNTT(t *testing.T) {
	m, err := noise.NewIIDPareto(1.7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := New(1, m, 1)
	f := bowl()
	for i := 0; i < 10; i++ {
		if _, err := sim.RunStep(f, []space.Point{{5, 5}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := 0.8 * sim.TotalTime()
	if math.Abs(sim.NTT()-want) > 1e-12 {
		t.Errorf("NTT = %g, want %g (Eq. 23)", sim.NTT(), want)
	}
}

func TestRunFixedTraces(t *testing.T) {
	m, _ := noise.NewIIDPareto(1.7, 0.3)
	sim, _ := New(4, m, 42)
	traces, err := sim.RunFixed(bowl(), space.Point{5, 5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 || len(traces[0]) != 100 {
		t.Fatalf("trace shape %dx%d", len(traces), len(traces[0]))
	}
	if sim.Steps() != 100 {
		t.Errorf("Steps = %d", sim.Steps())
	}
	// Every step's recorded time is the max across processors.
	st := sim.StepTimes()
	for k := 0; k < 100; k++ {
		max := 0.0
		for p := 0; p < 4; p++ {
			if traces[p][k] > max {
				max = traces[p][k]
			}
		}
		if math.Abs(st[k]-max) > 1e-12 {
			t.Fatalf("step %d: T_k = %g, max trace = %g", k, st[k], max)
		}
	}
	// Independent streams: processors should not produce identical traces.
	same := true
	for k := 0; k < 100 && same; k++ {
		if traces[0][k] != traces[1][k] {
			same = false
		}
	}
	if same {
		t.Error("processor noise streams are identical")
	}
	if _, err := sim.RunFixed(bowl(), space.Point{5, 5}, 0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestRunFixedDeterministicAcrossSeeds(t *testing.T) {
	m, _ := noise.NewIIDPareto(1.7, 0.3)
	s1, _ := New(2, m, 7)
	s2, _ := New(2, m, 7)
	t1, _ := s1.RunFixed(bowl(), space.Point{5, 5}, 50)
	t2, _ := s2.RunFixed(bowl(), space.Point{5, 5}, 50)
	for p := range t1 {
		for k := range t1[p] {
			if t1[p][k] != t2[p][k] {
				t.Fatal("same seed produced different traces")
			}
		}
	}
}

func TestEvaluatorSingleSample(t *testing.T) {
	sim, _ := New(4, noise.None{}, 1)
	ev := NewEvaluator(sim, bowl(), nil)
	pts := []space.Point{{5, 5}, {0, 0}}
	vals, err := ev.Eval(pts)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 1 || math.Abs(vals[1]-1.5) > 1e-12 {
		t.Errorf("vals = %v", vals)
	}
	if sim.Steps() != 1 {
		t.Errorf("one wave with K=1 should cost 1 step, took %d", sim.Steps())
	}
	if _, err := ev.Eval(nil); err == nil {
		t.Error("empty batch should fail")
	}
}

func TestEvaluatorSubsequentStepsCost(t *testing.T) {
	// Paper's Fig. 10 assumption: K samples in subsequent time steps.
	sim, _ := New(4, noise.None{}, 1)
	est, _ := sample.NewMinOfK(3)
	ev := NewEvaluator(sim, bowl(), est)
	if _, err := ev.Eval([]space.Point{{5, 5}, {0, 0}}); err != nil {
		t.Fatal(err)
	}
	if sim.Steps() != 3 {
		t.Errorf("K=3 should cost 3 steps, took %d", sim.Steps())
	}
}

func TestEvaluatorParallelSampling(t *testing.T) {
	t.Run("one step", func(t *testing.T) {
		// 8 processors, 2 candidates, K=3: replicas give 4 samples per
		// step, so a single step suffices.
		m, _ := noise.NewIIDPareto(1.7, 0.2)
		sim, _ := New(8, m, 3)
		est, _ := sample.NewMinOfK(3)
		ev := NewEvaluator(sim, bowl(), est)
		ev.ParallelSampling = true
		vals, err := ev.Eval([]space.Point{{5, 5}, {0, 0}})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Steps() != 1 {
			t.Errorf("parallel sampling should finish in 1 step, took %d", sim.Steps())
		}
		if len(vals) != 2 {
			t.Fatalf("vals = %v", vals)
		}
		// Estimates can never be below the noise-free values.
		if vals[0] < 1 || vals[1] < 1.5 {
			t.Errorf("estimates below noise-free values: %v", vals)
		}
	})
	t.Run("uneven replicas", func(t *testing.T) {
		// 16 processors, 6 candidates, K=3: the 10 replicas of step 1 give
		// candidates 0-3 three samples and 4-5 two. Step 2 still runs the
		// whole wave, because it fits on the live processors, so every
		// candidate gains samples again; it is not narrowed to the two
		// short candidates.
		m, _ := noise.NewIIDPareto(1.7, 0.2)
		sim, _ := New(16, m, 3)
		est, _ := sample.NewMinOfK(3)
		ev := NewEvaluator(sim, bowl(), est)
		ev.ParallelSampling = true
		sink := &countSink{}
		ev.Sink = sink
		pts := []space.Point{{5, 5}, {0, 0}, {10, 5}, {2, 8}, {7, 1}, {3, 3}}
		vals, err := ev.Eval(pts)
		if err != nil {
			t.Fatal(err)
		}
		checkWave(t, sim, sink, pts, vals, 2, []int{6, 6, 6, 6, 4, 4}, []float64{
			1.1175681703299856, 1.6676619179137984, 1.3792384972080125,
			1.307425195528212, 1.3284072703478105, 1.2179058561321365,
		})
	})
}

func TestEvaluatorWaves(t *testing.T) {
	// 2 processors, 5 candidates, K=1: needs ceil(5/2) = 3 steps.
	sim, _ := New(2, noise.None{}, 1)
	ev := NewEvaluator(sim, bowl(), nil)
	pts := []space.Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}
	vals, err := ev.Eval(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 {
		t.Fatalf("vals = %v", vals)
	}
	if sim.Steps() != 3 {
		t.Errorf("5 candidates on 2 procs should cost 3 steps, took %d", sim.Steps())
	}
	f := bowl()
	for i, p := range pts {
		if vals[i] != f.Eval(p) {
			t.Errorf("val[%d] = %g, want %g", i, vals[i], f.Eval(p))
		}
	}
}

func TestEvaluatorAdaptive(t *testing.T) {
	t.Run("bounded steps", func(t *testing.T) {
		m, _ := noise.NewIIDPareto(1.7, 0.3)
		sim, _ := New(2, m, 5)
		est, err := sample.NewAdaptiveMin(2, 8, 0.01, 2)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(sim, bowl(), est)
		vals, err := ev.Eval([]space.Point{{5, 5}, {0, 0}})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Steps() < 2 || sim.Steps() > 8 {
			t.Errorf("adaptive sampling took %d steps, want within [2, 8]", sim.Steps())
		}
		if vals[0] < 1 || vals[1] < 1.5 {
			t.Errorf("adaptive estimates below noise-free values: %v", vals)
		}
	})
	t.Run("uneven stopping", func(t *testing.T) {
		// The three candidates have enough samples at different steps. The
		// wave fits on the live processors, so every step runs all three
		// until the last one has enough: each gets one sample per step,
		// and none is dropped from a step once its own samples suffice.
		m, _ := noise.NewIIDPareto(1.7, 0.3)
		sim, _ := New(4, m, 3)
		est, err := sample.NewAdaptiveMin(2, 8, 0.01, 2)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(sim, bowl(), est)
		sink := &countSink{}
		ev.Sink = sink
		pts := []space.Point{{5, 5}, {0, 0}, {10, 5}}
		vals, err := ev.Eval(pts)
		if err != nil {
			t.Fatal(err)
		}
		checkWave(t, sim, sink, pts, vals, 6, []int{6, 6, 6}, []float64{
			1.1796656979505407, 1.7874204307093686, 1.4989502255584732,
		})
	})
}

// countSink counts the observations the evaluator forwards per point.
type countSink struct{ n map[string]int }

func (c *countSink) Observe(p space.Point, _ float64) {
	if c.n == nil {
		c.n = map[string]int{}
	}
	c.n[p.String()]++
}

// checkWave pins one evaluated wave: its step count, the observations of
// each candidate, and each estimate bit for bit.
func checkWave(t *testing.T, sim *Sim, sink *countSink, pts []space.Point, vals []float64, steps int, counts []int, want []float64) {
	t.Helper()
	if sim.Steps() != steps {
		t.Errorf("wave took %d steps, want %d", sim.Steps(), steps)
	}
	for i, p := range pts {
		if got := sink.n[p.String()]; got != counts[i] {
			t.Errorf("candidate %d: %d observations, want %d", i, got, counts[i])
		}
		if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
			t.Errorf("candidate %d: estimate %v, want %v", i, vals[i], want[i])
		}
	}
}

// TestEvalOne evaluates a one-point batch without noise: the estimate is
// the objective's noise-free value.
func TestEvalOne(t *testing.T) {
	sim, _ := New(1, noise.None{}, 1)
	ev := NewEvaluator(sim, bowl(), nil)
	vs, err := ev.Eval([]space.Point{{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0] != 1 {
		t.Errorf("Eval one point = %v, want [1]", vs)
	}
}

// Property: Total_Time equals the sum of step times for any run shape (Eq. 2).
func TestTotalTimeIsSumProperty(t *testing.T) {
	f := func(stepsRaw, seed uint8) bool {
		steps := int(stepsRaw%20) + 1
		m, _ := noise.NewIIDPareto(1.7, 0.25)
		sim, _ := New(3, m, int64(seed))
		fn := bowl()
		for i := 0; i < steps; i++ {
			if _, err := sim.RunStep(fn, []space.Point{{5, 5}, {1, 2}}, 2); err != nil {
				return false
			}
		}
		var sum float64
		for _, s := range sim.StepTimes() {
			sum += s
		}
		return math.Abs(sum-sim.TotalTime()) < 1e-9 && sim.Steps() == steps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Failure injection: a noise model that returns +Inf must propagate into the
// step accounting without panicking.
func TestInfSpikePropagates(t *testing.T) {
	sim, _ := New(2, noise.Spike{Base: noise.None{}, P: 1}, 1)
	obs, err := sim.RunStep(bowl(), []space.Point{{5, 5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(obs[0], 1) || !math.IsInf(sim.TotalTime(), 1) {
		t.Error("Inf observation should dominate the step")
	}
}

func TestEvaluatorFillGatesBarrier(t *testing.T) {
	// 4 processors, 1 candidate, Fill set to an expensive configuration:
	// the step time must be gated by the fill config, but the measurement
	// must be of the candidate alone.
	f := bowl() // f(5,5)=1 cheap; f(0,0)=1.5 expensive
	sim, _ := New(4, noise.None{}, 1)
	ev := NewEvaluator(sim, f, nil)
	ev.Fill = space.Point{0, 0}
	vals, err := ev.Eval([]space.Point{{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 1 {
		t.Errorf("measurement = %g, want 1 (candidate only)", vals[0])
	}
	if got := sim.StepTimes()[0]; math.Abs(got-1.5) > 1e-12 {
		t.Errorf("T_k = %g, want 1.5 (gated by the fill processors)", got)
	}
}

func TestEvaluatorNoFillNoPadding(t *testing.T) {
	f := bowl()
	sim, _ := New(4, noise.None{}, 1)
	ev := NewEvaluator(sim, f, nil)
	if _, err := ev.Eval([]space.Point{{5, 5}}); err != nil {
		t.Fatal(err)
	}
	if got := sim.StepTimes()[0]; got != 1 {
		t.Errorf("T_k = %g, want 1 (no fill processors)", got)
	}
}

// A Controlled (adaptive-K) estimator raises its sample count across waves
// under heavy variability, and the evaluator honours the new K.
func TestEvaluatorControlledEstimator(t *testing.T) {
	tn, err := sample.NewKTuner(1.7, 0.05, 0.05, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sample.NewControlled(tn)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := noise.NewIIDPareto(1.7, 0.35)
	sim, _ := New(4, m, 11)
	ev := NewEvaluator(sim, bowl(), est)
	prevSteps := 0
	var lastCost int
	for round := 0; round < 30; round++ {
		if _, err := ev.Eval([]space.Point{{5, 5}, {0, 0}}); err != nil {
			t.Fatal(err)
		}
		lastCost = sim.Steps() - prevSteps
		prevSteps = sim.Steps()
	}
	if tn.K() <= 2 {
		t.Errorf("controller never raised K under rho=0.35: K=%d", tn.K())
	}
	if lastCost != tn.K() {
		t.Errorf("last wave cost %d steps, controller K=%d", lastCost, tn.K())
	}
}

// refHeap is the container/heap implementation completionHeap replaced: the
// reference for its pop order.
type refHeap []Completion

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].Finish < h[j].Finish }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(Completion)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCompletionHeapMatchesContainerHeap drives completionHeap and
// container/heap through the same random pushes and pops, with Finish
// drawn from a few values so that most completions tie: every pop must
// return the same completion, so ties keep their order.
func TestCompletionHeapMatchesContainerHeap(t *testing.T) {
	rng := dist.NewRNG(3)
	var got completionHeap
	var want refHeap
	for id := uint64(0); id < 5000; id++ {
		if rng.Intn(3) > 0 || len(got) == 0 {
			c := Completion{ID: id, Finish: float64(rng.Intn(6))}
			got.push(c)
			heap.Push(&want, c)
			continue
		}
		g, w := got.pop(), heap.Pop(&want).(Completion)
		if g.ID != w.ID {
			t.Fatalf("pop after id %d: got completion %d, container/heap pops %d", id, g.ID, w.ID)
		}
	}
	for len(got) > 0 {
		if g, w := got.pop(), heap.Pop(&want).(Completion); g.ID != w.ID {
			t.Fatalf("drain: got completion %d, container/heap pops %d", g.ID, w.ID)
		}
	}
}
