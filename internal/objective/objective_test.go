package objective

import (
	"math"
	"sync"
	"testing"

	"paratune/internal/space"
)

func smallSpace() *space.Space {
	return space.MustNew(space.IntParam("a", 0, 10), space.IntParam("b", 0, 10))
}

func TestSphere(t *testing.T) {
	s := smallSpace()
	f := NewSphere(s, space.Point{5, 5}, 2)
	if got := f.Eval(space.Point{5, 5}); got != 2 {
		t.Errorf("value at min = %g, want floor 2", got)
	}
	if f.Eval(space.Point{0, 0}) <= f.Eval(space.Point{4, 5}) {
		t.Error("sphere should grow away from the minimum")
	}
	if f.Space() != s {
		t.Error("Space accessor")
	}
	// Default centre.
	fc := NewSphere(s, nil, 0)
	if got := fc.Eval(s.Center()); got != 0 {
		t.Errorf("default-centre min value = %g", got)
	}
}

func TestSphereZeroRangeParam(t *testing.T) {
	s := space.MustNew(space.IntParam("a", 3, 3), space.IntParam("b", 0, 10))
	f := NewSphere(s, nil, 0)
	if v := f.Eval(space.Point{3, 5}); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("zero-range param produced %g", v)
	}
}

func TestRosenbrock(t *testing.T) {
	s := space.MustNew(space.ContinuousParam("x", -2, 2), space.ContinuousParam("y", -2, 2))
	f := &Rosenbrock{S: s}
	// Global minimum of the standard Rosenbrock is at (1, 1) => normalised
	// coords (1,1) means raw (1,1) here since range maps [-2,2]->[-2,2].
	if got := f.Eval(space.Point{1, 1}); math.Abs(got) > 1e-9 {
		t.Errorf("Rosenbrock(1,1) = %g, want 0", got)
	}
	if f.Eval(space.Point{-1, 1}) <= 0 {
		t.Error("away from min should be positive")
	}
}

func TestRuggedHasMultipleLocalMinima(t *testing.T) {
	s := smallSpace()
	f := &Rugged{S: s, Ripples: 4, Depth: 0.5}
	// Count strict local minima on the integer grid (4-neighbourhood).
	minima := 0
	for a := 0.0; a <= 10; a++ {
		for b := 0.0; b <= 10; b++ {
			v := f.Eval(space.Point{a, b})
			isMin := true
			for _, d := range [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				na, nb := a+d[0], b+d[1]
				if na < 0 || na > 10 || nb < 0 || nb > 10 {
					continue
				}
				if f.Eval(space.Point{na, nb}) <= v {
					isMin = false
					break
				}
			}
			if isMin {
				minima++
			}
		}
	}
	if minima < 2 {
		t.Errorf("rugged surface has %d local minima, want >= 2", minima)
	}
}

func TestStep(t *testing.T) {
	s := smallSpace()
	f := &Step{S: s, Steps: 5}
	if f.Eval(space.Point{0, 0}) != 0 {
		t.Error("floor of staircase")
	}
	if f.Eval(space.Point{10, 10}) <= f.Eval(space.Point{0, 0}) {
		t.Error("staircase should rise")
	}
	// Constant within a tread.
	if f.Eval(space.Point{0, 0}) != f.Eval(space.Point{1, 1}) {
		t.Error("staircase should be flat within a tread")
	}
}

func TestCounting(t *testing.T) {
	f := &Counting{F: NewSphere(smallSpace(), nil, 0)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				f.Eval(space.Point{1, 1})
			}
		}()
	}
	wg.Wait()
	if f.Count() != 800 {
		t.Errorf("Count = %d, want 800", f.Count())
	}
	f.Reset()
	if f.Count() != 0 {
		t.Error("Reset")
	}
	if f.String() == "" || f.Space() == nil {
		t.Error("accessors")
	}
}

func TestGridMin(t *testing.T) {
	s := smallSpace()
	f := NewSphere(s, space.Point{7, 2}, 1)
	arg, val, err := GridMin(f)
	if err != nil {
		t.Fatal(err)
	}
	if !arg.Equal(space.Point{7, 2}) || val != 1 {
		t.Errorf("GridMin = %v, %g", arg, val)
	}
	cs := space.MustNew(space.ContinuousParam("x", 0, 1))
	if _, _, err := GridMin(NewSphere(cs, nil, 0)); err == nil {
		t.Error("GridMin on continuous space should error")
	}
}
