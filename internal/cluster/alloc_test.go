package cluster

import (
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// Allocation guards for the simulator's per-step paths. Each budget is the
// exact measured count, so any new allocation on the path (an fmt call, a
// boxed float, a clone, a buffer that stopped being reused) fails the test.

func allocSurface(t *testing.T) objective.Function {
	t.Helper()
	sp, err := space.New(space.IntParam("a", 0, 31), space.IntParam("b", 0, 31))
	if err != nil {
		t.Fatal(err)
	}
	return objective.NewSphere(sp, nil, 1)
}

func TestRunStepAllocBudget(t *testing.T) {
	f := allocSurface(t)
	s, err := New(4, noise.None{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	assign := []space.Point{f.Space().Center(), f.Space().Center()}
	// Budget: none. The observations live in the simulator's scratch, and
	// amortised growth of the stepTimes record reads as 0.
	alloccheck.Guard(t, "Sim.RunStep", 0, func() {
		if _, err := s.RunStep(f, assign, len(assign)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRunStepBarrierOnlyAllocBudget(t *testing.T) {
	f := allocSurface(t)
	model, err := noise.NewIIDPareto(1.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(16, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]space.Point, 16)
	for i := range assign {
		assign[i] = f.Space().Center()
	}
	assign[1] = space.Point{3, 4}
	// Budget: none, with 2 observed entries or with none. Deferred draws
	// run on scratch, and the 202 steps of both guards stay below draw 274,
	// where a stream allocates its register.
	alloccheck.Guard(t, "Sim.RunStep with barrier-only entries", 0, func() {
		if _, err := s.RunStep(f, assign, 2); err != nil {
			t.Fatal(err)
		}
	})
	alloccheck.Guard(t, "Sim.RunStep with no observed entry", 0, func() {
		if _, err := s.RunStep(f, assign, 0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSubmitAllocBudget(t *testing.T) {
	f := allocSurface(t)
	s, err := NewAsync(4, noise.None{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Space().Center()
	// Budget per Submit of 2 samples and its drain: one shared point clone.
	// The typed queue boxes no Completion, amortised queue growth reads as
	// 0, and draining keeps the queue short.
	alloccheck.Guard(t, "AsyncSim.Submit", 1, func() {
		if _, err := s.Submit(f, x, 2); err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	})
}

func TestEvalAllocBudget(t *testing.T) {
	f := allocSurface(t)
	s, err := New(4, noise.None{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sample.NewMinOfK(3)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(s, f, est)
	ev.Fill = f.Space().Center()
	pts := []space.Point{{1, 2}, {3, 4}}
	// Budget per Eval of 2 points at K=3: the estimates handed to the
	// caller. Observations, the step order and the processor assignment
	// run on scratch, and RunStep allocates nothing.
	alloccheck.Guard(t, "Evaluator.Eval", 1, func() {
		if _, err := ev.Eval(pts); err != nil {
			t.Fatal(err)
		}
	})
}
