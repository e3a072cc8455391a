// Package baseline implements the comparator optimisers the paper discusses:
// the Nelder–Mead simplex (§3.1, the algorithm previously used by Active
// Harmony), plus simulated annealing, a genetic algorithm, pure random
// search, and compass (coordinate) search. All satisfy core.Algorithm so the
// experiment harness can swap them freely.
package baseline

import (
	"math"

	"paratune/internal/core"
	"paratune/internal/space"
)

// collapseTol is the simplex spread at which Nelder–Mead stops, the same
// tolerance core's PRO and SRO converge at.
const collapseTol = 1e-6

// NelderMead is the classic simplex method of §3.1: N+1 vertices, the worst
// vertex replaced by a point on the line through it and the centroid of the
// others, with reflection (α=2), expansion (α=3) and contraction (α=0.5)
// relative to the paper's v_N + α(c − v_N) parameterisation. Unlike PRO it
// accepts any move that improves on the worst vertex, evaluates essentially
// one point per iteration (inherently sequential), and can deform into a
// degenerate simplex.
type NelderMead struct {
	opts      core.Options
	simplex   *space.Simplex
	converged bool
	inited    bool
	iters     int
	evals     int
}

// NewNelderMead validates the options and returns the algorithm.
func NewNelderMead(opts core.Options) (*NelderMead, error) {
	if err := normalise(&opts); err != nil {
		return nil, err
	}
	return &NelderMead{opts: opts}, nil
}

// normalise mirrors core's option validation for baseline constructors.
func normalise(o *core.Options) error { return core.ValidateOptions(o) }

// Init builds and evaluates the minimal N+1 simplex.
func (nm *NelderMead) Init(ev core.Evaluator) error {
	sim := space.InitialMinimal(nm.opts.Space, nm.opts.Center, nm.opts.R)
	for i, v := range sim.Vertices {
		vals, err := ev.Eval([]space.Point{v})
		if err != nil {
			return err
		}
		sim.Values[i] = vals[0]
	}
	sim.Sort()
	nm.simplex = sim
	nm.inited = true
	nm.converged = false
	nm.iters = 0
	nm.evals = sim.Len()
	return nil
}

// Simplex exposes the current simplex.
func (nm *NelderMead) Simplex() *space.Simplex { return nm.simplex }

// Best returns the best vertex and value.
func (nm *NelderMead) Best() (space.Point, float64) {
	if nm.simplex == nil {
		return nil, math.Inf(1)
	}
	p, v := nm.simplex.Best()
	return p.Clone(), v
}

// Converged reports simplex collapse.
func (nm *NelderMead) Converged() bool { return nm.converged }

func (nm *NelderMead) String() string { return "nelder-mead" }

// Iterations returns completed iterations.
func (nm *NelderMead) Iterations() int { return nm.iters }

// Evals returns the total point evaluations, including the initial simplex.
func (nm *NelderMead) Evals() int { return nm.evals }

// Step performs one Nelder–Mead iteration.
func (nm *NelderMead) Step(ev core.Evaluator) (core.StepInfo, error) {
	if !nm.inited {
		return core.StepInfo{}, core.ErrNotInitialised
	}
	if nm.converged {
		p, v := nm.simplex.Best()
		return core.StepInfo{Kind: core.StepConverged, Best: p.Clone(), BestValue: v}, nil
	}
	nm.simplex.Sort()
	if nm.simplex.Collapsed(collapseTol) {
		nm.converged = true
		p, v := nm.simplex.Best()
		return core.StepInfo{Kind: core.StepConverged, Best: p.Clone(), BestValue: v}, nil
	}
	nm.iters++

	n := nm.simplex.Len() - 1
	worst := nm.simplex.Vertices[n]
	worstVal := nm.simplex.Values[n]
	secondWorst := nm.simplex.Values[n-1]
	// Centroid of all vertices but the worst (Eq. 3).
	c := nm.simplex.Centroid(n)

	// line(alpha) = worst + alpha*(c - worst), projected into the space.
	line := func(alpha float64) space.Point {
		x := make(space.Point, len(worst))
		for i := range x {
			x[i] = worst[i] + alpha*(c[i]-worst[i])
		}
		return nm.project(x, c)
	}

	evalOne := func(x space.Point) (float64, error) {
		vals, err := ev.Eval([]space.Point{x})
		if err != nil {
			return 0, err
		}
		return vals[0], nil
	}

	refl := line(2) // reflection through the centroid
	reflVal, err := evalOne(refl)
	if err != nil {
		return core.StepInfo{}, err
	}

	bestVal := nm.simplex.Values[0]
	switch {
	case reflVal < bestVal:
		// Try expansion (alpha = 3).
		expn := line(3)
		expVal, err := evalOne(expn)
		if err != nil {
			return core.StepInfo{}, err
		}
		if expVal < reflVal {
			nm.replaceWorst(expn, expVal)
			return nm.info(core.StepExpand, 2), nil
		}
		nm.replaceWorst(refl, reflVal)
		return nm.info(core.StepReflect, 2), nil
	case reflVal < secondWorst:
		nm.replaceWorst(refl, reflVal)
		return nm.info(core.StepReflect, 1), nil
	default:
		// Contraction (alpha = 0.5), on the better of worst/reflected side.
		con := line(0.5)
		conVal, err := evalOne(con)
		if err != nil {
			return core.StepInfo{}, err
		}
		if conVal < worstVal {
			nm.replaceWorst(con, conVal)
			return nm.info(core.StepShrink, 2), nil
		}
		// Contract the whole simplex around the best point.
		best := nm.simplex.Vertices[0]
		evals := 0
		for j := 1; j <= n; j++ {
			x := nm.project(space.Shrink(best, nm.simplex.Vertices[j]), best)
			v, err := evalOne(x)
			if err != nil {
				return core.StepInfo{}, err
			}
			evals++
			nm.simplex.Vertices[j] = x
			nm.simplex.Values[j] = v
		}
		nm.simplex.Sort()
		return nm.info(core.StepShrink, evals+2), nil
	}
}

// project applies the configured projection rule to the fresh point x in
// place and returns it.
func (nm *NelderMead) project(x, center space.Point) space.Point {
	if nm.opts.ProjectNearest {
		return nm.opts.Space.ProjectNearestTo(x, x)
	}
	return nm.opts.Space.ProjectTo(x, x, center)
}

func (nm *NelderMead) replaceWorst(x space.Point, v float64) {
	n := nm.simplex.Len() - 1
	nm.simplex.Vertices[n] = x
	nm.simplex.Values[n] = v
	nm.simplex.Sort()
}

func (nm *NelderMead) info(kind core.StepKind, evals int) core.StepInfo {
	nm.evals += evals
	p, v := nm.simplex.Best()
	return core.StepInfo{Kind: kind, Best: p.Clone(), BestValue: v, Evals: evals}
}
