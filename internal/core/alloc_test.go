package core

import (
	"testing"

	"paratune/internal/alloccheck"
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
// space: per batch one point slice plus one allocation per projected trial
// point, the expansion check's point and batch, and the caller-owned best
// clone in StepInfo; the simplex sorts in place.
const proStepAllocs = 13

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
