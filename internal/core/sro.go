package core

import (
	"math"

	"paratune/internal/space"
)

// SRO is the Sequential Rank Ordering algorithm (Algorithm 1). It differs
// from PRO in its reflection-checking step: only the *worst* vertex is
// reflected and evaluated (one point, one time step); if that single
// reflection beats the best vertex, the whole simplex is reflected (and
// possibly expanded), otherwise it shrinks. SRO is the natural choice when
// no parallel evaluation capacity exists.
type SRO struct {
	opts      Options
	simplex   *space.Simplex
	converged bool
	inited    bool
	iters     int
	evals     int
}

// NewSRO validates the options and returns an uninitialised SRO.
func NewSRO(opts Options) (*SRO, error) {
	if err := opts.normalise(); err != nil {
		return nil, err
	}
	return &SRO{opts: opts}, nil
}

// Init builds and evaluates the initial simplex (Algorithm 1 line 1).
// The vertices are evaluated one at a time: SRO assumes no parallelism.
func (s *SRO) Init(ev Evaluator) error {
	sim := s.opts.initialSimplex()
	for i, v := range sim.Vertices {
		vals, err := ev.Eval([]space.Point{v})
		if err != nil {
			return err
		}
		sim.Values[i] = vals[0]
	}
	sim.Sort()
	s.simplex = sim
	s.inited = true
	s.converged = false
	s.iters = 0
	s.evals = sim.Len()
	return nil
}

// Simplex returns the current simplex (live; callers must not mutate).
func (s *SRO) Simplex() *space.Simplex { return s.simplex }

// Iterations returns the number of working Step calls.
func (s *SRO) Iterations() int { return s.iters }

// Evals returns the total point evaluations requested.
func (s *SRO) Evals() int { return s.evals }

// Best returns the best vertex and its estimate.
func (s *SRO) Best() (space.Point, float64) {
	if s.simplex == nil {
		return nil, math.Inf(1)
	}
	pt, v := s.simplex.Best()
	return pt.Clone(), v
}

// Converged reports the §3.2.2 certificate.
func (s *SRO) Converged() bool { return s.converged }

func (s *SRO) String() string { return "sro" }

// Step performs one SRO iteration (Algorithm 1 lines 4–16).
func (s *SRO) Step(ev Evaluator) (StepInfo, error) {
	if !s.inited {
		return StepInfo{}, ErrNotInitialised
	}
	if s.converged {
		pt, v := s.simplex.Best()
		return StepInfo{Kind: StepConverged, Best: pt.Clone(), BestValue: v}, nil
	}
	s.simplex.Sort()
	if s.simplex.Collapsed(collapseTol) {
		return s.convergenceCheck(ev)
	}
	s.iters++

	best, bestVal := s.simplex.Best()
	n := s.simplex.Len() - 1
	worst := s.simplex.Vertices[n]

	// Reflection checking step (line 5): reflect only the worst vertex.
	r := s.opts.project(space.Reflect(best, worst), best)
	rv, err := s.evalOne(ev, r)
	if err != nil {
		return StepInfo{}, err
	}

	if rv < bestVal {
		// Expansion checking step (line 7).
		e := s.opts.project(space.Expand(best, worst), best)
		evl, err := s.evalOne(ev, e)
		if err != nil {
			return StepInfo{}, err
		}
		if evl < rv {
			// Accept expansion (line 9): expand every non-best vertex.
			for j := 1; j <= n; j++ {
				x := s.opts.project(space.Expand(best, s.simplex.Vertices[j]), best)
				xv, err := s.evalOne(ev, x)
				if err != nil {
					return StepInfo{}, err
				}
				s.simplex.Vertices[j] = x
				s.simplex.Values[j] = xv
			}
			s.simplex.Sort()
			pt, v := s.simplex.Best()
			return StepInfo{Kind: StepExpand, Best: pt.Clone(), BestValue: v, Evals: n + 2}, nil
		}
		// Accept reflection (line 11): reflect every non-best vertex.
		for j := 1; j <= n; j++ {
			x := s.opts.project(space.Reflect(best, s.simplex.Vertices[j]), best)
			xv, err := s.evalOne(ev, x)
			if err != nil {
				return StepInfo{}, err
			}
			s.simplex.Vertices[j] = x
			s.simplex.Values[j] = xv
		}
		s.simplex.Sort()
		pt, v := s.simplex.Best()
		return StepInfo{Kind: StepReflect, Best: pt.Clone(), BestValue: v, Evals: n + 2}, nil
	}

	// Accept shrink (line 13).
	for j := 1; j <= n; j++ {
		x := s.opts.project(space.Shrink(best, s.simplex.Vertices[j]), best)
		xv, err := s.evalOne(ev, x)
		if err != nil {
			return StepInfo{}, err
		}
		s.simplex.Vertices[j] = x
		s.simplex.Values[j] = xv
	}
	s.simplex.Sort()
	pt, v := s.simplex.Best()
	return StepInfo{Kind: StepShrink, Best: pt.Clone(), BestValue: v, Evals: n + 1}, nil
}

func (s *SRO) evalOne(ev Evaluator, x space.Point) (float64, error) {
	vals, err := ev.Eval([]space.Point{x})
	if err != nil {
		return 0, err
	}
	s.evals++
	return vals[0], nil
}

// convergenceCheck mirrors PRO's §3.2.2 probe, evaluated sequentially.
func (s *SRO) convergenceCheck(ev Evaluator) (StepInfo, error) {
	best, bestVal := s.simplex.Best()
	probes := space.ConvergenceProbe(s.opts.Space, best)
	if len(probes) == 0 {
		s.converged = true
		return StepInfo{Kind: StepConverged, Best: best.Clone(), BestValue: bestVal}, nil
	}
	vals := make([]float64, len(probes))
	for i, pb := range probes {
		v, err := s.evalOne(ev, pb)
		if err != nil {
			return StepInfo{}, err
		}
		vals[i] = v
	}
	improved := false
	for _, v := range vals {
		if v < bestVal {
			improved = true
			break
		}
	}
	if !improved && !s.opts.Restless {
		s.converged = true
		return StepInfo{Kind: StepConverged, Best: best.Clone(), BestValue: bestVal, Evals: len(probes)}, nil
	}
	verts := make([]space.Point, 0, len(probes)+1)
	verts = append(verts, best.Clone())
	verts = append(verts, probes...)
	sim := space.NewSimplex(verts)
	sim.Values[0] = bestVal
	copy(sim.Values[1:], vals)
	sim.Sort()
	s.simplex = sim
	s.iters++
	pt, v := sim.Best()
	return StepInfo{Kind: StepProbe, Best: pt.Clone(), BestValue: v, Evals: len(probes)}, nil
}
