package cluster

import (
	"math"
	"testing"

	"paratune/internal/fault"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// flatFn is a constant objective: every configuration takes 1.0.
type flatFn struct{ sp *space.Space }

func (f flatFn) Eval(space.Point) float64 { return 1.0 }
func (f flatFn) Space() *space.Space      { return f.sp }
func (f flatFn) String() string           { return "flat" }

func flatObjective(t *testing.T) flatFn {
	t.Helper()
	sp, err := space.New(space.ContinuousParam("x", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	return flatFn{sp: sp}
}

func onePoint() space.Point { return space.Point{0.5} }

func TestSimCrashRedistributes(t *testing.T) {
	f := flatObjective(t)
	sim, err := New(4, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := fault.New(fault.Config{Seed: 1, PCrash: 1, MaxCrashes: 2})
	sim.SetFaults(in)
	assign := []space.Point{onePoint(), onePoint(), onePoint(), onePoint()}
	obs, err := sim.RunStep(f, assign, len(assign))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Live() != 2 {
		t.Fatalf("live = %d, want 2 after 2 injected crashes", sim.Live())
	}
	if in.Plan().Count(fault.Crash) != 2 {
		t.Fatalf("plan crashes = %d", in.Plan().Count(fault.Crash))
	}
	// Every candidate still produced an observation: crashed processors'
	// work was redistributed to survivors.
	for i, y := range obs {
		if y != 1.0 {
			t.Errorf("obs[%d] = %g, want 1 (redistributed run)", i, y)
		}
	}
	// The survivors ran 4 candidates between 2 processors: the barrier time
	// reflects the redistribution (2 sequential runs on the busiest proc).
	if got := sim.StepTimes()[0]; got != 2.0 {
		t.Errorf("T_k = %g, want 2 (two sequential candidates on a survivor)", got)
	}
}

func TestSimAllCrashed(t *testing.T) {
	f := flatObjective(t)
	sim, _ := New(2, nil, 1)
	in, _ := fault.New(fault.Config{Seed: 1, PCrash: 1})
	sim.SetFaults(in)
	if _, err := sim.RunStep(f, []space.Point{onePoint()}, 1); err == nil {
		t.Fatal("expected ErrAllProcessorsCrashed")
	}
	if sim.Live() != 0 {
		t.Errorf("live = %d", sim.Live())
	}
	if _, err := sim.RunStep(f, []space.Point{onePoint()}, 1); err != ErrAllProcessorsCrashed {
		t.Errorf("err = %v, want ErrAllProcessorsCrashed", err)
	}
}

func TestSimDropAndCorruptObservations(t *testing.T) {
	f := flatObjective(t)
	sim, _ := New(1, nil, 1)
	in, _ := fault.New(fault.Config{Seed: 3, PDrop: 1})
	sim.SetFaults(in)
	obs, err := sim.RunStep(f, []space.Point{onePoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(obs[0]) {
		t.Errorf("dropped observation = %g, want NaN", obs[0])
	}
	if sim.StepTimes()[0] != 1.0 {
		t.Errorf("dropped measurement must still cost time, T_k = %g", sim.StepTimes()[0])
	}

	sim2, _ := New(1, nil, 1)
	in2, _ := fault.New(fault.Config{Seed: 3, PCorrupt: 1})
	sim2.SetFaults(in2)
	obs2, err := sim2.RunStep(f, []space.Point{onePoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fault.ValidValue(obs2[0]) && obs2[0] < 1e200 {
		t.Errorf("corrupt observation = %g looks valid", obs2[0])
	}
}

func TestSimStragglerStretchesStep(t *testing.T) {
	f := flatObjective(t)
	sim, _ := New(1, nil, 1)
	in, _ := fault.New(fault.Config{Seed: 5, PStraggler: 1})
	sim.SetFaults(in)
	obs, err := sim.RunStep(f, []space.Point{onePoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if obs[0] < 2.0 {
		t.Errorf("straggler obs = %g, want >= 2 (min factor)", obs[0])
	}
	if sim.StepTimes()[0] != obs[0] {
		t.Errorf("T_k = %g != straggler obs %g", sim.StepTimes()[0], obs[0])
	}
	if in.Plan().Count(fault.Straggler) != 1 {
		t.Errorf("plan stragglers = %d", in.Plan().Count(fault.Straggler))
	}
}

func TestEvaluatorSurvivesDropsAndCorruption(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 17, Coverage: 1})
	sim, err := New(8, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := fault.New(fault.Config{Seed: 7, PDrop: 0.2, PCorrupt: 0.1})
	sim.SetFaults(in)
	est, _ := sample.NewMinOfK(2)
	ev := NewEvaluator(sim, db, est)
	pts := []space.Point{db.Space().Center(), db.Space().Center()}
	vals, err := ev.Eval(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if !fault.ValidValue(v) {
			t.Errorf("estimate[%d] = %g not valid", i, v)
		}
	}
	if in.Plan().Len() == 0 {
		t.Error("no faults were injected")
	}
}

func TestEvaluatorWorstKnownSubstitution(t *testing.T) {
	f := flatObjective(t)
	sim, _ := New(2, nil, 1)
	est, _ := sample.NewMinOfK(1)
	ev := NewEvaluator(sim, f, est)
	// First batch fault-free: establishes worst-known = 1.
	if _, err := ev.Eval([]space.Point{onePoint()}); err != nil {
		t.Fatal(err)
	}
	// Second batch loses everything.
	in, _ := fault.New(fault.Config{Seed: 2, PDrop: 1})
	sim.SetFaults(in)
	vals, err := ev.Eval([]space.Point{onePoint()})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 1.0 {
		t.Errorf("lost candidate scored %g, want worst-known 1", vals[0])
	}
}

func TestEvaluatorAllLostNoHistory(t *testing.T) {
	f := flatObjective(t)
	sim, _ := New(2, nil, 1)
	in, _ := fault.New(fault.Config{Seed: 2, PDrop: 1})
	sim.SetFaults(in)
	est, _ := sample.NewMinOfK(1)
	ev := NewEvaluator(sim, f, est)
	if _, err := ev.Eval([]space.Point{onePoint()}); err == nil {
		t.Error("expected error when every measurement is lost with no history")
	}
}

func TestAsyncSimFaults(t *testing.T) {
	f := flatObjective(t)
	sim, err := NewAsync(4, noise.None{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := fault.New(fault.Config{Seed: 11, PCrash: 0.1, PDrop: 0.3, MaxCrashes: 2})
	sim.SetFaults(in)
	delivered := 0
	for i := 0; i < 50; i++ {
		if _, err := sim.Submit(f, onePoint(), 2); err != nil {
			t.Fatal(err)
		}
	}
	for {
		c, ok := sim.Next()
		if !ok {
			break
		}
		if !fault.ValidValue(c.Value) {
			t.Errorf("completion value %g not valid with no corrupt faults", c.Value)
		}
		delivered++
	}
	drops := in.Plan().Count(fault.Drop)
	if delivered+drops != 100 {
		t.Errorf("delivered %d + dropped %d != 100 submitted samples", delivered, drops)
	}
	if crashes := in.Plan().Count(fault.Crash); crashes > 0 && sim.Live() != 4-crashes {
		t.Errorf("live = %d with %d crashes", sim.Live(), crashes)
	}
	if sim.Makespan() <= 0 {
		t.Error("makespan not accounted")
	}
}

func TestAsyncEvaluatorReissuesAndDegrades(t *testing.T) {
	f := flatObjective(t)
	sim, _ := NewAsync(4, noise.None{}, 3)
	in, _ := fault.New(fault.Config{Seed: 13, PDrop: 0.5, PCorrupt: 0.1})
	sim.SetFaults(in)
	est, _ := sample.NewMinOfK(3)
	ev := &AsyncEvaluator{Sim: sim, F: f, Est: est}
	vals, err := ev.Eval([]space.Point{onePoint(), onePoint(), onePoint()})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 1.0 {
			t.Errorf("vals[%d] = %g, want 1 (flat objective, min estimator)", i, v)
		}
	}
}

func TestAsyncEvaluatorTotalLossDegradesToWorstKnown(t *testing.T) {
	f := flatObjective(t)
	sim, _ := NewAsync(2, noise.None{}, 3)
	est, _ := sample.NewMinOfK(1)
	ev := &AsyncEvaluator{Sim: sim, F: f, Est: est}
	// Establish nothing, then drop everything: mixed batch where one point
	// survives (drop rate < 1 can't guarantee that, so run two batches).
	if _, err := ev.Eval([]space.Point{onePoint()}); err != nil {
		t.Fatal(err)
	}
	in, _ := fault.New(fault.Config{Seed: 17, PDrop: 1})
	sim.SetFaults(in)
	vals, err := ev.Eval([]space.Point{onePoint(), onePoint()})
	if err != nil {
		t.Fatal(err)
	}
	// Everything dropped: both points scored at the batch's worst known...
	// there is none in this batch, so Eval falls back per its contract.
	for i, v := range vals {
		if !fault.ValidValue(v) {
			t.Errorf("vals[%d] = %g", i, v)
		}
	}
}

func TestAsyncSubmitAllCrashed(t *testing.T) {
	f := flatObjective(t)
	sim, _ := NewAsync(1, noise.None{}, 3)
	in, _ := fault.New(fault.Config{Seed: 1, PCrash: 1})
	sim.SetFaults(in)
	if _, err := sim.Submit(f, onePoint(), 1); err == nil {
		t.Fatal("expected crash error")
	}
	if _, err := sim.Submit(f, onePoint(), 1); err != ErrAllProcessorsCrashed {
		t.Errorf("err = %v", err)
	}
}

// Fault-free behaviour must be bit-identical with and without the (nil)
// injector plumbing: the seed experiments depend on it.
func TestFaultFreeDeterminismUnchanged(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 5, Coverage: 1})
	model, _ := noise.NewIIDPareto(1.7, 0.2)
	run := func() []float64 {
		sim, _ := New(8, model, 77)
		est, _ := sample.NewMinOfK(2)
		ev := NewEvaluator(sim, db, est)
		pts := []space.Point{db.Space().Center(), db.Space().Center().Clone()}
		vals, err := ev.Eval(pts)
		if err != nil {
			t.Fatal(err)
		}
		return append(vals, sim.TotalTime())
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault-free runs diverged: %v vs %v", a, b)
		}
	}
}
