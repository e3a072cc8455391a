package core

import (
	"bytes"
	"math"
	"testing"

	"paratune/internal/cluster"
	"paratune/internal/event"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func TestEngineValidation(t *testing.T) {
	sp := bowlSpace()
	f := objective.NewSphere(sp, nil, 0)
	sim, _ := cluster.New(4, noise.None{}, 1)
	ev := cluster.NewEvaluator(sim, f, sample.Single{})
	p, _ := NewPRO(Options{Space: sp})
	if _, err := (&Engine{Ev: ev}).Run(); err == nil {
		t.Error("nil algorithm should fail")
	}
	if _, err := (&Engine{Alg: p}).Run(); err == nil {
		t.Error("nil evaluator should fail")
	}
}

func TestEngineRecordsIterations(t *testing.T) {
	sp := bowlSpace()
	f := objective.NewSphere(sp, space.Point{50, 50}, 1)
	sim, _ := cluster.New(8, noise.None{}, 1)
	ev := cluster.NewEvaluator(sim, f, sample.Single{})
	p, _ := NewPRO(Options{Space: sp})
	rec := &event.Memory{}
	eng := &Engine{
		Alg: p, Ev: ev, Rec: rec, VTime: sim.TotalTime, StepIndex: sim.Steps,
		Continue: func(int) bool { return sim.Steps() < 400 },
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged || stats.ConvergedStep < 0 {
		t.Fatalf("noiseless bowl should converge: %+v", stats)
	}
	var iters, converged int
	for _, e := range rec.Events() {
		switch e.(type) {
		case event.Iteration:
			iters++
		case event.Converged:
			converged++
		}
	}
	// Init plus one event per optimiser step.
	if iters != stats.Iterations+1 {
		t.Errorf("iteration events = %d, want %d", iters, stats.Iterations+1)
	}
	if converged != 1 {
		t.Errorf("converged events = %d", converged)
	}
}

// The refactored drivers must reproduce the pre-engine numbers exactly: these
// constants were captured from RunOnline/RunOnlineAsync before the Engine
// extraction, with the same seeds and configs.
func TestEngineSyncParity(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.2)
	sim, _ := cluster.New(8, m, 99)
	est, _ := sample.NewMinOfK(2)
	p, _ := NewPRO(Options{Space: db.Space()})
	res, err := RunOnline(p, OnlineConfig{Sim: sim, F: db, Est: est, Budget: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(space.Point{36, 22, 32}) {
		t.Errorf("Best = %v, want [36 22 32]", res.Best)
	}
	checkFloat(t, "BestValue", res.BestValue, 0.5592346586168084)
	checkFloat(t, "TrueValue", res.TrueValue, 0.5069946831538823)
	checkFloat(t, "TotalTime", res.TotalTime, 77.37475946994056)
	checkFloat(t, "NTT", res.NTT, 61.89980757595245)
	if res.Iterations != 6 {
		t.Errorf("Iterations = %d, want 6", res.Iterations)
	}
	if res.ConvergedAtStep != 24 {
		t.Errorf("ConvergedAtStep = %d, want 24", res.ConvergedAtStep)
	}
}

func TestEngineAsyncParity(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.3)
	sim, _ := cluster.NewAsync(8, m, 42)
	est, _ := sample.NewMinOfK(2)
	p, _ := NewPRO(Options{Space: db.Space()})
	res, err := RunOnlineAsync(p, AsyncConfig{Sim: sim, F: db, Est: est, TimeBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(space.Point{38, 21, 32}) {
		t.Errorf("Best = %v, want [38 21 32]", res.Best)
	}
	checkFloat(t, "BestValue", res.BestValue, 0.4643902097828919)
	checkFloat(t, "TrueValue", res.TrueValue, 0.3939732625773147)
	checkFloat(t, "TuningTime", res.TuningTime, 21.475740808874626)
	if res.ProductionSteps != 706 {
		t.Errorf("ProductionSteps = %d, want 706", res.ProductionSteps)
	}
	if res.Iterations != 9 {
		t.Errorf("Iterations = %d, want 9", res.Iterations)
	}
	if !res.Converged {
		t.Error("run should converge within the budget")
	}
}

func checkFloat(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %.16g, want %.16g", name, got, want)
	}
}

// Two runs with identical seeds must emit byte-identical JSONL traces — the
// property cmd/paratune documents and the determinism contract of the event
// layer (virtual time only, fixed envelope ordering).
func TestGoldenTraceByteIdentical(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	run := func() []byte {
		var buf bytes.Buffer
		m, _ := noise.NewIIDPareto(1.7, 0.2)
		sim, _ := cluster.New(8, m, 99)
		est, _ := sample.NewMinOfK(2)
		p, _ := NewPRO(Options{Space: db.Space()})
		rec := event.NewJSONL(&buf)
		if _, err := RunOnline(p, OnlineConfig{Sim: sim, F: db, Est: est, Budget: 80, Recorder: rec}); err != nil {
			t.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed traces differ: %d vs %d bytes", len(a), len(b))
	}
	// The trace must open with run_start and close with run_end.
	lines := bytes.Split(bytes.TrimSpace(a), []byte("\n"))
	if !bytes.Contains(lines[0], []byte(`"kind":"run_start"`)) {
		t.Errorf("first line = %s", lines[0])
	}
	if !bytes.Contains(lines[len(lines)-1], []byte(`"kind":"run_end"`)) {
		t.Errorf("last line = %s", lines[len(lines)-1])
	}
}

// The recorder is observational only: a run with a recorder attached returns
// the same numbers as one without.
func TestRecorderDoesNotPerturbRun(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	run := func(rec event.Recorder) *Result {
		m, _ := noise.NewIIDPareto(1.7, 0.2)
		sim, _ := cluster.New(8, m, 99)
		est, _ := sample.NewMinOfK(2)
		p, _ := NewPRO(Options{Space: db.Space()})
		res, err := RunOnline(p, OnlineConfig{Sim: sim, F: db, Est: est, Budget: 80, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, traced := run(nil), run(&event.Memory{})
	if plain.TotalTime != traced.TotalTime || !plain.Best.Equal(traced.Best) ||
		plain.BestValue != traced.BestValue || plain.Iterations != traced.Iterations {
		t.Errorf("recorder perturbed the run: %+v vs %+v", plain.RunSummary, traced.RunSummary)
	}
}

// bestChecker wraps an Algorithm and fails t when a Step's StepInfo.Best or
// BestValue differs from what Best reports right after that Step.
type bestChecker struct {
	Algorithm
	t     *testing.T
	steps int
}

func (c *bestChecker) Step(ev Evaluator) (StepInfo, error) {
	info, err := c.Algorithm.Step(ev)
	if err != nil {
		return info, err
	}
	c.steps++
	b, v := c.Algorithm.Best()
	if !info.Best.Equal(b) || math.Float64bits(info.BestValue) != math.Float64bits(v) {
		c.t.Errorf("%s step %d (%s): StepInfo.Best = %v (%g), Best() = %v (%g)",
			c.Algorithm, c.steps, info.Kind, info.Best, info.BestValue, b, v)
	}
	return info, nil
}

// TestStepInfoBestIsIncumbent pins what lets the engine hand BeforeStep the
// incumbent without asking the algorithm for it again: for every registered
// algorithm, each Step's StepInfo.Best is what Best() reports after it, and
// BeforeStep sees Best() as it stands before each Step.
func TestStepInfoBestIsIncumbent(t *testing.T) {
	sp := bowlSpace()
	f := objective.NewSphere(sp, space.Point{70, 20}, 1)
	model, err := noise.NewIIDPareto(1.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			alg, err := NewByName(info.Name, Options{Space: sp})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := cluster.New(8, model, 3)
			if err != nil {
				t.Fatal(err)
			}
			checked := &bestChecker{Algorithm: alg, t: t}
			calls := 0
			eng := &Engine{
				Alg: checked, Ev: cluster.NewEvaluator(sim, f, sample.Single{}),
				Continue: func(int) bool { return sim.Steps() < 600 },
				BeforeStep: func(best space.Point) {
					calls++
					if b, _ := alg.Best(); !best.Equal(b) {
						t.Errorf("BeforeStep %d got %v, Best() = %v", calls, best, b)
					}
				},
			}
			stats, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Iterations < 5 || calls != stats.Iterations || checked.steps != stats.Iterations {
				t.Errorf("%d iterations, %d BeforeStep calls, %d checked steps; want at least 5, all equal",
					stats.Iterations, calls, checked.steps)
			}
		})
	}
}
