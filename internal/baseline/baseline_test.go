package baseline

import (
	"errors"
	"math"
	"testing"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/space"
)

type directEval struct {
	f     objective.Function
	calls int
	fail  bool
}

func (d *directEval) Eval(points []space.Point) ([]float64, error) {
	if d.fail {
		return nil, errors.New("injected failure")
	}
	d.calls++
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = d.f.Eval(p)
	}
	return out, nil
}

func bowlSpace() *space.Space {
	return space.MustNew(space.IntParam("a", 0, 100), space.IntParam("b", 0, 100))
}

// drive runs an algorithm to convergence or maxIters on a noiseless surface.
func drive(t *testing.T, alg core.Algorithm, f objective.Function, maxIters int) *directEval {
	t.Helper()
	ev := &directEval{f: f}
	if err := alg.Init(ev); err != nil {
		t.Fatalf("%v Init: %v", alg, err)
	}
	for i := 0; i < maxIters && !alg.Converged(); i++ {
		if _, err := alg.Step(ev); err != nil {
			t.Fatalf("%v Step: %v", alg, err)
		}
	}
	return ev
}

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewNelderMead(core.Options{}); err == nil {
		t.Error("nelder-mead without space should fail")
	}
	if _, err := NewRandom(nil, 4, 1); err == nil {
		t.Error("random without space should fail")
	}
	if _, err := NewAnnealing(nil, 1, 0.9, 1e-3, 1); err == nil {
		t.Error("annealing without space should fail")
	}
	if _, err := NewGenetic(nil, 10, 0.1, 1); err == nil {
		t.Error("genetic without space should fail")
	}
	if _, err := NewCompass(nil, 0.25); err == nil {
		t.Error("compass without space should fail")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := bowlSpace()
	r, _ := NewRandom(s, 0, 1)
	if r.Batch != 1 {
		t.Errorf("random batch default = %d", r.Batch)
	}
	a, _ := NewAnnealing(s, 0, 0, 0, 1)
	if a.T0 != 1 || a.Decay != 0.98 || a.Tmin != 1e-3 {
		t.Errorf("annealing defaults = %+v", a)
	}
	g, _ := NewGenetic(s, 2, 0, 1)
	if g.Pop != 10 || g.MutProb != 0.15 {
		t.Errorf("genetic defaults pop=%d mut=%g", g.Pop, g.MutProb)
	}
	c, _ := NewCompass(s, 0)
	if c.InitialFrac != 0.25 {
		t.Errorf("compass default frac = %g", c.InitialFrac)
	}
}

func TestStepBeforeInit(t *testing.T) {
	s := bowlSpace()
	nm, _ := NewNelderMead(core.Options{Space: s})
	r, _ := NewRandom(s, 4, 1)
	a, _ := NewAnnealing(s, 1, 0.98, 1e-3, 1)
	g, _ := NewGenetic(s, 8, 0.1, 1)
	c, _ := NewCompass(s, 0.25)
	for _, alg := range []core.Algorithm{nm, r, a, g, c} {
		if _, err := alg.Step(&directEval{}); !errors.Is(err, core.ErrNotInitialised) {
			t.Errorf("%v: err = %v, want ErrNotInitialised", alg, err)
		}
		if pt, v := alg.Best(); pt != nil || !math.IsInf(v, 1) {
			t.Errorf("%v: Best before init = %v, %g", alg, pt, v)
		}
	}
}

func TestInitErrorPropagates(t *testing.T) {
	s := bowlSpace()
	nm, _ := NewNelderMead(core.Options{Space: s})
	r, _ := NewRandom(s, 4, 1)
	a, _ := NewAnnealing(s, 1, 0.98, 1e-3, 1)
	g, _ := NewGenetic(s, 8, 0.1, 1)
	c, _ := NewCompass(s, 0.25)
	for _, alg := range []core.Algorithm{nm, r, a, g, c} {
		if err := alg.Init(&directEval{fail: true}); err == nil {
			t.Errorf("%v: Init should propagate evaluator failure", alg)
		}
	}
}

func TestNelderMeadConvergesOnBowl(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{60, 40}, 2)
	nm, err := NewNelderMead(core.Options{Space: s})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, nm, f, 2000)
	if !nm.Converged() {
		t.Fatal("nelder-mead did not converge on a bowl")
	}
	best, val := nm.Best()
	if math.Hypot(best[0]-60, best[1]-40) > 5 {
		t.Errorf("NM converged to %v (%g), want near (60, 40)", best, val)
	}
	if nm.Iterations() == 0 || nm.Simplex() == nil {
		t.Error("accessors")
	}
	// Converged step is a no-op.
	ev := &directEval{f: f}
	calls := ev.calls
	info, err := nm.Step(ev)
	if err != nil || info.Kind != core.StepConverged || ev.calls != calls {
		t.Error("converged NM step should not evaluate")
	}
}

func TestRandomImprovesMonotonically(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{10, 90}, 0)
	r, _ := NewRandom(s, 8, 42)
	ev := &directEval{f: f}
	if err := r.Init(ev); err != nil {
		t.Fatal(err)
	}
	_, prev := r.Best()
	for i := 0; i < 50; i++ {
		info, err := r.Step(ev)
		if err != nil {
			t.Fatal(err)
		}
		if info.BestValue > prev+1e-12 {
			t.Fatalf("best worsened: %g -> %g", prev, info.BestValue)
		}
		prev = info.BestValue
	}
	if r.Converged() {
		t.Error("random search must not report convergence")
	}
	best, _ := r.Best()
	if !s.Admissible(best) {
		t.Errorf("best %v not admissible", best)
	}
}

func TestAnnealingFreezesAndFindsGoodPoint(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{50, 50}, 0)
	a, _ := NewAnnealing(s, 1, 0.95, 1e-2, 7)
	drive(t, a, f, 5000)
	if !a.Converged() {
		t.Fatal("annealing never froze")
	}
	// Frozen step is a no-op.
	ev := &directEval{f: f}
	info, err := a.Step(ev)
	if err != nil || info.Kind != core.StepConverged || ev.calls != 0 {
		t.Error("frozen SA step should not evaluate")
	}
	best, _ := a.Best()
	if !s.Admissible(best) {
		t.Errorf("best %v not admissible", best)
	}
}

func TestAnnealingBestNeverWorsens(t *testing.T) {
	s := bowlSpace()
	f := &objective.Rugged{S: s, Ripples: 3, Depth: 0.5}
	a, _ := NewAnnealing(s, 2, 0.97, 1e-3, 3)
	ev := &directEval{f: f}
	if err := a.Init(ev); err != nil {
		t.Fatal(err)
	}
	_, prev := a.Best()
	for i := 0; i < 300 && !a.Converged(); i++ {
		info, err := a.Step(ev)
		if err != nil {
			t.Fatal(err)
		}
		if info.BestValue > prev+1e-12 {
			t.Fatalf("best-so-far worsened: %g -> %g", prev, info.BestValue)
		}
		prev = info.BestValue
	}
}

func TestGeneticFindsBowlMinimum(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{30, 70}, 1)
	g, _ := NewGenetic(s, 16, 0.2, 11)
	ev := drive(t, g, f, 300)
	_ = ev
	best, val := g.Best()
	if val > 1.05 {
		t.Errorf("GA best = %v (%g), want near (30, 70) value ~1", best, val)
	}
	if !s.Admissible(best) {
		t.Errorf("best %v not admissible", best)
	}
}

func TestGeneticPopulationStaysAdmissible(t *testing.T) {
	s := space.MustNew(space.IntParam("a", 0, 20), space.DiscreteParam("b", 1, 2, 4, 8))
	f := objective.NewSphere(s, space.Point{10, 4}, 0)
	g, _ := NewGenetic(s, 12, 0.3, 5)
	ev := &directEval{f: f}
	if err := g.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := g.Step(ev); err != nil {
			t.Fatal(err)
		}
		for _, p := range g.pop {
			if !s.Admissible(p) {
				t.Fatalf("generation %d has inadmissible member %v", i, p)
			}
		}
	}
}

func TestCompassConvergesToLocalMin(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{80, 20}, 0)
	c, _ := NewCompass(s, 0.25)
	drive(t, c, f, 1000)
	if !c.Converged() {
		t.Fatal("compass did not converge")
	}
	best, bestVal := c.Best()
	// Compass on a separable bowl should land exactly on the minimum.
	if !best.Equal(space.Point{80, 20}) {
		t.Errorf("compass best = %v (%g)", best, bestVal)
	}
	// Converged step is a no-op.
	ev := &directEval{f: f}
	info, err := c.Step(ev)
	if err != nil || info.Kind != core.StepConverged || ev.calls != 0 {
		t.Error("converged compass step should not evaluate")
	}
}

func TestCompassSinglePointSpace(t *testing.T) {
	s := space.MustNew(space.IntParam("x", 5, 5))
	f := objective.NewSphere(s, space.Point{5}, 1)
	c, _ := NewCompass(s, 0.25)
	drive(t, c, f, 10)
	if !c.Converged() {
		t.Fatal("single-point space should converge immediately")
	}
}

// All baselines run under the online driver against noisy GS2 — the Fig. 1
// experiment's machinery.
func TestBaselinesUnderOnlineDriver(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 21, Coverage: 1})
	s := db.Space()
	m, _ := noise.NewIIDPareto(1.7, 0.1)
	mk := func(name string) core.Algorithm {
		switch name {
		case "nm":
			nm, _ := NewNelderMead(core.Options{Space: s})
			return nm
		case "random":
			r, _ := NewRandom(s, 8, 2)
			return r
		case "sa":
			a, _ := NewAnnealing(s, 1, 0.97, 1e-3, 2)
			return a
		case "ga":
			g, _ := NewGenetic(s, 8, 0.2, 2)
			return g
		default:
			c, _ := NewCompass(s, 0.25)
			return c
		}
	}
	for _, name := range []string{"nm", "random", "sa", "ga", "compass"} {
		t.Run(name, func(t *testing.T) {
			sim, _ := cluster.New(8, m, 5)
			res, err := core.RunOnline(mk(name), core.OnlineConfig{Sim: sim, F: db, Budget: 60})
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != 60 || len(res.StepTimes) != 60 {
				t.Errorf("steps = %d", res.Steps)
			}
			if !s.Admissible(res.Best) {
				t.Errorf("final point %v not admissible", res.Best)
			}
		})
	}
}

func TestStrings(t *testing.T) {
	s := bowlSpace()
	nm, _ := NewNelderMead(core.Options{Space: s})
	r, _ := NewRandom(s, 4, 1)
	a, _ := NewAnnealing(s, 1, 0.98, 1e-3, 1)
	g, _ := NewGenetic(s, 8, 0.1, 1)
	c, _ := NewCompass(s, 0.25)
	for _, alg := range []core.Algorithm{nm, r, a, g, c} {
		if alg.String() == "" {
			t.Errorf("%T empty name", alg)
		}
	}
}
