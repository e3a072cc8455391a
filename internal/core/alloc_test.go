package core

import (
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/cluster"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// countEvaluator scores points with a churning deterministic sequence
// without allocating, reusing one values buffer, so the guard measures
// PRO.Step itself and the simplex never settles into the cheap converged
// fast path.
type countEvaluator struct {
	vals []float64
	n    int
}

func (e *countEvaluator) Eval(points []space.Point) ([]float64, error) {
	if cap(e.vals) < len(points) {
		e.vals = make([]float64, len(points))
	}
	e.vals = e.vals[:len(points)]
	for i := range points {
		e.vals[i] = float64((e.n*31 + i*17) % 101)
		e.n++
	}
	return e.vals, nil
}

// newAllocPRO initialises a restless PRO on a 3-parameter space, whose
// probe-rebuilt simplex has 7 vertices, against a fresh countEvaluator.
func newAllocPRO(t *testing.T) (*PRO, *countEvaluator) {
	t.Helper()
	sp, err := space.New(
		space.IntParam("a", 0, 255),
		space.IntParam("b", 0, 255),
		space.IntParam("c", 0, 255),
	)
	if err != nil {
		t.Fatal(err)
	}
	pro, err := NewPRO(Options{Space: sp, Restless: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := &countEvaluator{}
	if err := pro.Init(ev); err != nil {
		t.Fatal(err)
	}
	return pro, ev
}

// proStepAllocs is PRO.Step's measured per-step allocation count on that
// space, averaged over the churning evaluator's mix of step kinds: per
// batch one slab for its trial points, the expansion check's point, and the
// caller-owned best clone in StepInfo. The batch slices are reused and the
// simplex sorts in place.
const proStepAllocs = 4

// PRO.Step runs once per tuning iteration: it allocates its trial points and
// the reported best clone, but nothing proportional to the step count.
func TestPROStepAllocBudget(t *testing.T) {
	pro, ev := newAllocPRO(t)
	alloccheck.Guard(t, "PRO.Step", proStepAllocs, func() {
		if _, err := pro.Step(ev); err != nil {
			t.Fatal(err)
		}
	})
}

// Without a recorder the engine builds no events, so one Engine.Run step
// costs exactly what the PRO step under it does: no boxed Iteration.
func TestEngineStepAllocBudgetWithoutRecorder(t *testing.T) {
	pro, ev := newAllocPRO(t)
	eng := &Engine{Alg: pro, Ev: ev, SkipInit: true, Continue: func(it int) bool { return it < 1 }}
	alloccheck.Guard(t, "Engine.Run step", proStepAllocs, func() {
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// scriptEvaluator answers the i-th Eval call since the last rewind with
// script[i] for every point, from a buffer of its own per call, so a test
// forces one step's branch without allocating while the values PRO holds
// across the expansion check stay intact.
type scriptEvaluator struct {
	script []float64
	bufs   [][]float64
	call   int
}

func (e *scriptEvaluator) Eval(points []space.Point) ([]float64, error) {
	i := e.call
	e.call++
	for len(e.bufs) <= i {
		e.bufs = append(e.bufs, nil)
	}
	if cap(e.bufs[i]) < len(points) {
		e.bufs[i] = make([]float64, len(points))
	}
	out := e.bufs[i][:len(points)]
	for j := range out {
		out[j] = e.script[i]
	}
	return out, nil
}

// Each step kind on the 6-vertex simplex, from the same starting simplex:
// one slab per batch, one point for the expansion check, and the StepInfo
// best clone.
func TestPROStepKindAllocs(t *testing.T) {
	for _, c := range []struct {
		kind   StepKind
		script []float64 // reflection, then check or shrink, then expansion
		allocs float64
	}{
		{StepReflect, []float64{1, 5}, 3},   // refl slab, check point, clone
		{StepExpand, []float64{1, 0, 0}, 4}, // refl slab, check point, exp slab, clone
		{StepShrink, []float64{20, 30}, 3},  // refl slab, shrink slab, clone
	} {
		pro, _ := newAllocPRO(t)
		sim := pro.Simplex()
		verts := append([]space.Point(nil), sim.Vertices...)
		vals := make([]float64, len(verts))
		for i := range vals {
			vals[i] = float64(10 * (i + 1))
		}
		ev := &scriptEvaluator{script: c.script}
		var info StepInfo
		alloccheck.Guard(t, "PRO.Step/"+c.kind.String(), c.allocs, func() {
			copy(sim.Vertices, verts)
			copy(sim.Values, vals)
			ev.call = 0
			var err error
			if info, err = pro.Step(ev); err != nil {
				t.Fatal(err)
			}
		})
		if info.Kind != c.kind || ev.call != len(c.script) {
			t.Errorf("script %v: step %v after %d evals, want %v after %d", c.script, info.Kind, ev.call, c.kind, len(c.script))
		}
	}
}

// TestRunOnlineAllocBudget pins a whole short on-line run, from a fresh
// simulator to its Result, on an 8-processor cluster under Pareto noise at
// K=3. The per-step pins read growth that restarts with each run as 0;
// this pin counts it. What is left is model state and set-up, none of it
// per step: PRO's trial slabs, transformed points and the best clone each
// StepInfo carries (about 32; the engine hands that clone to the fill
// instead of cloning the incumbent again), the estimates each Eval returns
// (18), the P+2 random streams (19), and the simulator, evaluator, engine
// and result.
func TestRunOnlineAllocBudget(t *testing.T) {
	sp := bowlSpace()
	f := objective.NewSphere(sp, space.Point{10, 10}, 1)
	model, err := noise.NewIIDPareto(1.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sample.NewMinOfK(3)
	if err != nil {
		t.Fatal(err)
	}
	alloccheck.Guard(t, "RunOnline", 100, func() {
		sim, err := cluster.New(8, model, 1)
		if err != nil {
			t.Fatal(err)
		}
		pro, err := NewPRO(Options{Space: sp})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunOnline(pro, OnlineConfig{Sim: sim, F: f, Est: est, Budget: 60}); err != nil {
			t.Fatal(err)
		}
	})
}
