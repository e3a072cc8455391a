package core

import (
	"errors"
	"math"
	"testing"

	"paratune/internal/cluster"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// directEval is a noiseless, costless evaluator for unit tests.
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

func TestNewPROValidation(t *testing.T) {
	if _, err := NewPRO(Options{}); err == nil {
		t.Error("missing space should fail")
	}
	s := bowlSpace()
	if _, err := NewPRO(Options{Space: s, Center: space.Point{1000, 0}}); err == nil {
		t.Error("inadmissible centre should fail")
	}
	p, err := NewPRO(Options{Space: s})
	if err != nil {
		t.Fatal(err)
	}
	if p.opts.R != 0.2 {
		t.Errorf("defaults not applied: %+v", p.opts)
	}
}

func TestPROStepBeforeInit(t *testing.T) {
	p, _ := NewPRO(Options{Space: bowlSpace()})
	if _, err := p.Step(&directEval{}); !errors.Is(err, ErrNotInitialised) {
		t.Errorf("err = %v, want ErrNotInitialised", err)
	}
	if pt, v := p.Best(); pt != nil || !math.IsInf(v, 1) {
		t.Error("Best before init")
	}
}

func TestPROConvergesOnConvexSurface(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{70, 30}, 1)
	p, _ := NewPRO(Options{Space: s})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Converged() {
		t.Fatal("PRO did not converge on a convex bowl")
	}
	best, val := p.Best()
	if !best.Equal(space.Point{70, 30}) {
		t.Errorf("converged to %v (value %g), want (70, 30)", best, val)
	}
	if val != 1 {
		t.Errorf("best value = %g, want 1", val)
	}
}

func TestPROStaysAdmissible(t *testing.T) {
	s := space.MustNew(
		space.IntParam("ntheta", 8, 64),
		space.IntParam("negrid", 4, 32),
		space.DiscreteParam("nodes", 1, 2, 4, 8, 16, 32, 64),
	)
	db := objective.GenerateGS2(objective.GS2Config{Seed: 9, Coverage: 1})
	_ = db
	f := objective.NewSphere(s, space.Point{16, 8, 4}, 0.5)
	p, _ := NewPRO(Options{Space: s})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
		for _, v := range p.Simplex().Vertices {
			if !s.Admissible(v) {
				t.Fatalf("iteration %d produced inadmissible vertex %v", i, v)
			}
		}
	}
}

// The best vertex value must never increase across iterations: reflection
// and expansion are only accepted when they beat the best point, and shrink
// keeps the best vertex (monotonicity of rank ordering).
func TestPROBestMonotone(t *testing.T) {
	s := bowlSpace()
	f := &objective.Rugged{S: s, Ripples: 3, Depth: 0.4}
	p, _ := NewPRO(Options{Space: s})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	_, prev := p.Best()
	for i := 0; i < 300 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
		_, cur := p.Best()
		if cur > prev+1e-12 {
			t.Fatalf("iteration %d: best value rose from %g to %g", i, prev, cur)
		}
		prev = cur
	}
}

func TestPROConvergedStepIsNoop(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{50, 50}, 0)
	p, _ := NewPRO(Options{Space: s})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	calls := ev.calls
	info, err := p.Step(ev)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != StepConverged {
		t.Errorf("kind = %v", info.Kind)
	}
	if ev.calls != calls {
		t.Error("converged Step evaluated points")
	}
}

// §3.2.2: the convergence certificate must be genuine — the reported point
// is a local minimum among per-parameter neighbours.
func TestPROCertifiedLocalMinimum(t *testing.T) {
	s := bowlSpace()
	f := &objective.Rugged{S: s, Ripples: 2, Depth: 0.3}
	p, _ := NewPRO(Options{Space: s})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Converged() {
		t.Fatal("did not converge")
	}
	best, bestVal := p.Best()
	for _, probe := range space.ConvergenceProbe(s, best) {
		if f.Eval(probe) < bestVal {
			t.Fatalf("certified point %v (%g) beaten by neighbour %v (%g)",
				best, bestVal, probe, f.Eval(probe))
		}
	}
}

func TestPROEagerExpansionAblation(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{90, 90}, 0)
	p, _ := NewPRO(Options{Space: s, EagerExpansion: true})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	best, _ := p.Best()
	if math.Hypot(best[0]-90, best[1]-90) > 2 {
		t.Errorf("eager expansion converged to %v, want near (90, 90)", best)
	}
}

func TestPROAblationKnobsStillConverge(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{25, 75}, 0)
	for _, opts := range []Options{
		{Space: s, SimplexShape: ShapeMinimal},
	} {
		p, err := NewPRO(opts)
		if err != nil {
			t.Fatal(err)
		}
		ev := &directEval{f: f}
		if err := p.Init(ev); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500 && !p.Converged(); i++ {
			if _, err := p.Step(ev); err != nil {
				t.Fatal(err)
			}
		}
		if !p.Converged() {
			t.Errorf("opts %+v never converged", opts)
		}
	}
}

// The ablation knobs the paper argues against are allowed to stall — the
// Nelder–Mead accept rule can cycle (reflection is an involution when the
// best vertex does not change) and plain nearest rounding can leave discrete
// vertices one step away from the centre forever (§3.2.1). The run must
// still be safe: no errors, admissible vertices, monotone best value, and a
// material improvement over the starting simplex.
func TestPROAblationKnobsRunSafely(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{25, 75}, 0)
	for _, opts := range []Options{
		{Space: s, NelderAcceptRule: true},
		{Space: s, ProjectNearest: true},
	} {
		p, err := NewPRO(opts)
		if err != nil {
			t.Fatal(err)
		}
		ev := &directEval{f: f}
		if err := p.Init(ev); err != nil {
			t.Fatal(err)
		}
		_, initVal := p.Best()
		prev := initVal
		for i := 0; i < 300 && !p.Converged(); i++ {
			if _, err := p.Step(ev); err != nil {
				t.Fatal(err)
			}
			_, cur := p.Best()
			if cur > prev+1e-12 {
				t.Fatalf("best value rose from %g to %g", prev, cur)
			}
			prev = cur
			for _, v := range p.Simplex().Vertices {
				if !s.Admissible(v) {
					t.Fatalf("inadmissible vertex %v", v)
				}
			}
		}
		if _, final := p.Best(); final >= initVal {
			t.Errorf("opts %+v made no progress: %g -> %g", opts, initVal, final)
		}
	}
}

func TestPROEvalErrorPropagates(t *testing.T) {
	p, _ := NewPRO(Options{Space: bowlSpace()})
	ev := &directEval{f: objective.NewSphere(bowlSpace(), nil, 0), fail: true}
	if err := p.Init(ev); err == nil {
		t.Error("Init should propagate evaluator failure")
	}
}

func TestPROOneDimensional(t *testing.T) {
	s := space.MustNew(space.IntParam("x", 0, 1000))
	f := objective.NewSphere(s, space.Point{123}, 0)
	p, _ := NewPRO(Options{Space: s})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	best, _ := p.Best()
	if !best.Equal(space.Point{123}) {
		t.Errorf("1-D best = %v, want (123)", best)
	}
}

func TestPROSinglePointSpace(t *testing.T) {
	s := space.MustNew(space.IntParam("x", 5, 5))
	f := objective.NewSphere(s, space.Point{5}, 2)
	p, _ := NewPRO(Options{Space: s})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Converged() {
		t.Fatal("degenerate space should converge immediately")
	}
	best, v := p.Best()
	if !best.Equal(space.Point{5}) || v != 2 {
		t.Errorf("best = %v, %g", best, v)
	}
}

// PRO under noise with min-of-K sampling still lands on a good configuration
// of the GS2 database (integration smoke test).
func TestPROOnGS2WithNoise(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 17, Coverage: 1})
	m, err := noise.NewIIDPareto(1.7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cluster.New(16, m, 2024)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPRO(Options{Space: db.Space()})
	res, err := RunOnline(p, OnlineConfig{Sim: sim, F: db, Budget: 200})
	if err != nil {
		t.Fatal(err)
	}
	_, globalMin, err := db.Min()
	if err != nil {
		t.Fatal(err)
	}
	center := db.Eval(db.Space().Center())
	if res.TrueValue > center {
		t.Errorf("tuning ended worse than the starting centre: %g > %g", res.TrueValue, center)
	}
	if res.TrueValue < globalMin {
		t.Errorf("impossible: found value %g below the global min %g", res.TrueValue, globalMin)
	}
}

func TestStepKindStrings(t *testing.T) {
	kinds := []StepKind{StepInit, StepReflect, StepExpand, StepShrink, StepProbe, StepConverged, StepKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for %d", int(k))
		}
	}
	if Shape2N.String() != "2N" || ShapeMinimal.String() != "minimal" {
		t.Error("shape strings")
	}
}

// Restless PRO must never report convergence: after a failed certificate it
// adopts the probe simplex and keeps searching.
func TestPRORestlessNeverConverges(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{50, 50}, 1)
	p, _ := NewPRO(Options{Space: s, Restless: true})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
		if p.Converged() {
			t.Fatal("restless PRO reported convergence")
		}
	}
	// It still sits on the optimum.
	best, _ := p.Best()
	if !best.Equal(space.Point{50, 50}) {
		t.Errorf("restless best = %v", best)
	}
}

// RemeasureBest refreshes the incumbent's value each iteration; on a
// noiseless surface the behaviour is identical to standard PRO.
func TestPRORemeasureBestNoiseless(t *testing.T) {
	s := bowlSpace()
	f := objective.NewSphere(s, space.Point{40, 60}, 1)
	p, _ := NewPRO(Options{Space: s, RemeasureBest: true})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Converged() {
		t.Fatal("did not converge")
	}
	best, val := p.Best()
	if !best.Equal(space.Point{40, 60}) || val != 1 {
		t.Errorf("best = %v, %g", best, val)
	}
}

// Under noise, RemeasureBest lets the incumbent's estimate move back up —
// the stored value is no longer the all-time luckiest draw.
func TestPRORemeasureBestUpdatesIncumbent(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 3, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.4)
	sim, _ := cluster.New(8, m, 11)
	ev := cluster.NewEvaluator(sim, db, nil)
	p, _ := NewPRO(Options{Space: db.Space(), RemeasureBest: true})
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	sawIncrease := false
	_, prev := p.Best()
	for i := 0; i < 60; i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
		_, cur := p.Best()
		if cur > prev {
			sawIncrease = true
		}
		prev = cur
	}
	if !sawIncrease {
		t.Error("incumbent estimate never rose; re-measurement appears inactive")
	}
}

// PRO on the stencil application model lands within a small factor of the
// exhaustive optimum — the second realistic workload integration test.
func TestPROOnStencil(t *testing.T) {
	st, err := objective.NewStencil(64)
	if err != nil {
		t.Fatal(err)
	}
	_, globalMin, err := objective.GridMin(st)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPRO(Options{Space: st.Space()})
	ev := &directEval{f: st}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !p.Converged(); i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Converged() {
		t.Fatal("PRO did not converge on the stencil model")
	}
	_, val := p.Best()
	if val > globalMin*1.5 {
		t.Errorf("PRO found %g, oracle %g — more than 50%% above", val, globalMin)
	}
}

// Structural invariants across many noisy iterations: vertex count is 2N
// except right after a probe rebuild (2N+1), values stay sorted after Step,
// and the evaluation counter is non-decreasing.
func TestPROStructuralInvariants(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 8, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.3)
	sim, _ := cluster.New(8, m, 13)
	ev := cluster.NewEvaluator(sim, db, nil)
	p, _ := NewPRO(Options{Space: db.Space(), Restless: true})
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	n := db.Space().Dim()
	prevEvals := p.Evals()
	for i := 0; i < 120; i++ {
		if _, err := p.Step(ev); err != nil {
			t.Fatal(err)
		}
		got := p.Simplex().Len()
		if got != 2*n && got != 2*n+1 {
			t.Fatalf("iteration %d: simplex has %d vertices, want %d or %d", i, got, 2*n, 2*n+1)
		}
		vals := p.Simplex().Values
		for j := 1; j < len(vals); j++ {
			if vals[j] < vals[j-1] {
				t.Fatalf("iteration %d: values not sorted: %v", i, vals)
			}
		}
		if p.Evals() < prevEvals {
			t.Fatalf("evaluation counter went backwards")
		}
		prevEvals = p.Evals()
	}
}

// StepInfo bookkeeping: each reported kind matches an actual state change.
func TestPROStepInfoKinds(t *testing.T) {
	s := bowlSpace()
	// Minimum far from the start centre, so the run must travel (reflect or
	// expand) before it shrinks and converges.
	f := objective.NewSphere(s, space.Point{80, 20}, 0)
	p, _ := NewPRO(Options{Space: s})
	ev := &directEval{f: f}
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	seen := map[StepKind]bool{}
	for i := 0; i < 500 && !p.Converged(); i++ {
		info, err := p.Step(ev)
		if err != nil {
			t.Fatal(err)
		}
		seen[info.Kind] = true
		if info.Best == nil {
			t.Fatal("StepInfo.Best is nil")
		}
	}
	// A full run on a bowl from the centre must exercise at least expansion
	// or reflection, shrink, and converge.
	if !seen[StepShrink] {
		t.Error("no shrink step observed on a convex run")
	}
	if !seen[StepConverged] {
		t.Error("no converged step observed")
	}
	if !(seen[StepReflect] || seen[StepExpand]) {
		t.Error("no reflect/expand step observed")
	}
}

// StepInfo.Evals must equal the optimiser's evaluation-counter delta for
// every working iteration (reflect, expand, shrink, probe alike).
func TestPROStepInfoEvalsAccounting(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 6, Coverage: 1})
	m, _ := noise.NewIIDPareto(1.7, 0.25)
	sim, _ := cluster.New(8, m, 17)
	ev := cluster.NewEvaluator(sim, db, nil)
	p, _ := NewPRO(Options{Space: db.Space()})
	if err := p.Init(ev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60 && !p.Converged(); i++ {
		before := p.Evals()
		info, err := p.Step(ev)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Evals() - before; got != info.Evals {
			t.Fatalf("iteration %d (%v): StepInfo.Evals = %d, counter delta = %d",
				i, info.Kind, info.Evals, got)
		}
	}
}

// keepingEval remembers every point it was handed together with a copy of
// its coordinates, so a test can prove no point was written afterwards.
type keepingEval struct {
	directEval
	seen, want []space.Point
}

func (k *keepingEval) Eval(points []space.Point) ([]float64, error) {
	for _, p := range points {
		k.seen = append(k.seen, p)
		k.want = append(k.want, p.Clone())
	}
	return k.directEval.Eval(points)
}

// Trial points are projected in place and the simplex is sorted in place,
// so pin the ownership contract: no point handed to the evaluator is ever
// rewritten, and StepInfo.Best / Best() are copies the caller may scribble
// on without touching the simplex.
func TestPROPointOwnership(t *testing.T) {
	s := space.MustNew(space.IntParam("a", 0, 100), space.ContinuousParam("b", 0, 10))
	f := objective.NewSphere(s, space.Point{25, 7.5}, 0)
	for c, opts := range []Options{
		{Space: s},
		{Space: s, ProjectNearest: true},
		{Space: s, EagerExpansion: true, RemeasureBest: true},
		{Space: s, Restless: true},
	} {
		p, err := NewPRO(opts)
		if err != nil {
			t.Fatal(err)
		}
		ev := &keepingEval{directEval: directEval{f: f}}
		if err := p.Init(ev); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200 && !p.Converged(); i++ {
			info, err := p.Step(ev)
			if err != nil {
				t.Fatal(err)
			}
			best, _ := p.Simplex().Best()
			before := best.Clone()
			info.Best[0] = -1
			b, _ := p.Best()
			b[0] = -2
			if !best.Equal(before) {
				t.Fatalf("options case %d: writing StepInfo.Best or Best() changed the simplex", c)
			}
		}
		for i, pt := range ev.seen {
			if !pt.Equal(ev.want[i]) {
				t.Fatalf("options case %d: evaluated point %d rewritten from %v to %v", c, i, ev.want[i], pt)
			}
		}
	}
}
