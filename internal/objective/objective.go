// Package objective defines noise-free performance functions f(v): the cost
// surfaces that the tuning algorithms search. It provides analytic test
// surfaces and a GS2 surrogate database mirroring the paper's §6 setup, where
// a measured database over (ntheta, negrid, nodes) is replayed and off-grid
// points are estimated by a weighted average of their closest neighbours.
package objective

import (
	"fmt"
	"math"
	"sync/atomic"

	"paratune/internal/space"
)

// Function is a deterministic, noise-free cost surface f(v) over a Space.
// Implementations must be safe for concurrent Eval calls.
type Function interface {
	// Eval returns the noise-free cost at x. x must have Space().Dim()
	// coordinates; implementations may assume admissibility. Eval must be
	// a pure function of x: the cluster simulator calls it once per step
	// for all the processors running x, not once per processor.
	Eval(x space.Point) float64
	// Space returns the admissible region the function is defined over.
	Space() *space.Space
	String() string
}

// Sphere is a convex quadratic bowl centred at Min with unit curvature per
// normalised coordinate plus a Floor offset: the easiest sanity surface.
type Sphere struct {
	S     *space.Space
	Min   space.Point
	Floor float64
}

// NewSphere centres the bowl at the region centre when min is nil.
func NewSphere(s *space.Space, min space.Point, floor float64) *Sphere {
	if min == nil {
		min = s.Center()
	}
	return &Sphere{S: s, Min: min, Floor: floor}
}

func (f *Sphere) Eval(x space.Point) float64 {
	var sum float64
	for i := range x {
		r := f.S.Param(i).Range()
		if r == 0 {
			continue
		}
		d := (x[i] - f.Min[i]) / r
		sum += d * d
	}
	return f.Floor + sum
}

func (f *Sphere) Space() *space.Space { return f.S }
func (f *Sphere) String() string      { return fmt.Sprintf("sphere(min=%v)", f.Min) }

// Rosenbrock is the classic banana valley generalised to N dimensions over
// normalised coordinates; hard for axis-aligned searches.
type Rosenbrock struct {
	S     *space.Space
	Floor float64
}

func (f *Rosenbrock) Eval(x space.Point) float64 {
	n := make([]float64, len(x))
	for i := range x {
		p := f.S.Param(i)
		r := p.Range()
		if r == 0 {
			n[i] = 0
			continue
		}
		// Map to [-2, 2].
		n[i] = (x[i]-p.Lower)/r*4 - 2
	}
	var sum float64
	for i := 0; i+1 < len(n); i++ {
		a := n[i+1] - n[i]*n[i]
		b := 1 - n[i]
		sum += 100*a*a + b*b
	}
	return f.Floor + sum
}

func (f *Rosenbrock) Space() *space.Space { return f.S }
func (f *Rosenbrock) String() string      { return "rosenbrock" }

// Rugged is a Rastrigin-style multi-minimum surface: a bowl plus cosine
// ripples, qualitatively matching the non-smooth GS2 surface of Fig. 8.
type Rugged struct {
	S       *space.Space
	Ripples float64 // number of ripple periods across each parameter range
	Depth   float64 // ripple amplitude relative to the bowl height
	Floor   float64
}

func (f *Rugged) Eval(x space.Point) float64 {
	var bowl, rip float64
	for i := range x {
		p := f.S.Param(i)
		r := p.Range()
		if r == 0 {
			continue
		}
		u := (x[i] - p.Center()) / r // roughly [-0.5, 0.5]
		bowl += u * u
		rip += 1 - math.Cos(2*math.Pi*f.Ripples*u)
	}
	return f.Floor + bowl + f.Depth*rip
}

func (f *Rugged) Space() *space.Space { return f.S }
func (f *Rugged) String() string      { return fmt.Sprintf("rugged(ripples=%g)", f.Ripples) }

// Step is a piecewise-constant staircase: gradients are zero almost
// everywhere, so only direct search makes progress.
type Step struct {
	S     *space.Space
	Steps float64
	Floor float64
}

func (f *Step) Eval(x space.Point) float64 {
	var sum float64
	for i := range x {
		p := f.S.Param(i)
		r := p.Range()
		if r == 0 {
			continue
		}
		u := (x[i] - p.Lower) / r
		sum += math.Floor(u * f.Steps)
	}
	return f.Floor + sum
}

func (f *Step) Space() *space.Space { return f.S }
func (f *Step) String() string      { return fmt.Sprintf("step(%g)", f.Steps) }

// Counting wraps a Function and counts Eval calls; used to measure the
// evaluation cost of the algorithms. Safe for concurrent use.
type Counting struct {
	F Function
	n atomic.Int64
}

func (c *Counting) Eval(x space.Point) float64 {
	c.n.Add(1)
	return c.F.Eval(x)
}

func (c *Counting) Space() *space.Space { return c.F.Space() }
func (c *Counting) String() string      { return c.F.String() }

// Count returns the number of Eval calls so far.
func (c *Counting) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counting) Reset() { c.n.Store(0) }

// GridMin exhaustively evaluates a fully discrete space and returns the
// global minimiser and its value; the oracle for optimality-gap metrics.
func GridMin(f Function) (space.Point, float64, error) {
	best := math.Inf(1)
	var arg space.Point
	err := f.Space().Enumerate(func(p space.Point) {
		if v := f.Eval(p); v < best {
			best = v
			arg = p.Clone()
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return arg, best, nil
}
