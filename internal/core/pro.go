package core

import (
	"math"

	"paratune/internal/space"
)

// PRO is the Parallel Rank Ordering algorithm (Algorithm 2). Each iteration
// reflects every non-best vertex around the best vertex in parallel; if the
// best reflected point improves on the best vertex, it checks one expansion
// point (the most promising), and on success expands the whole simplex;
// otherwise it shrinks the simplex toward the best vertex.
//
// Every batch PRO proposes is fresh points on one new slab, so no point
// handed to the evaluator is ever written again. The slices holding the
// reflect, expand or shrink batch and the one-point expansion check are
// reused across steps, which the Evaluator contract allows.
type PRO struct {
	opts      Options
	simplex   *space.Simplex
	converged bool
	inited    bool
	iters     int
	evals     int
	batch     []space.Point // reflect, expand or shrink batch; reused
	check     []space.Point // the expansion check's one point; reused
}

// NewPRO validates the options and returns an uninitialised PRO.
func NewPRO(opts Options) (*PRO, error) {
	if err := opts.normalise(); err != nil {
		return nil, err
	}
	return &PRO{opts: opts}, nil
}

// Init builds and evaluates the initial simplex (Algorithm 2 line 1).
func (p *PRO) Init(ev Evaluator) error {
	sim := p.opts.initialSimplex()
	vals, err := ev.Eval(sim.Vertices)
	if err != nil {
		return err
	}
	copy(sim.Values, vals)
	sim.Sort()
	p.simplex = sim
	p.inited = true
	p.converged = false
	p.iters = 0
	p.evals = sim.Len()
	return nil
}

// Simplex returns the current simplex (live; callers must not mutate).
func (p *PRO) Simplex() *space.Simplex { return p.simplex }

// Iterations returns the number of Step calls that performed work.
func (p *PRO) Iterations() int { return p.iters }

// Evals returns the total number of point evaluations requested.
func (p *PRO) Evals() int { return p.evals }

// Best returns the best vertex and its estimate.
func (p *PRO) Best() (space.Point, float64) {
	if p.simplex == nil {
		return nil, math.Inf(1)
	}
	pt, v := p.simplex.Best()
	return pt.Clone(), v
}

// Converged reports whether the §3.2.2 certificate has been issued.
func (p *PRO) Converged() bool { return p.converged }

func (p *PRO) String() string { return "pro" }

// Step performs one PRO iteration (Algorithm 2 lines 4–18). When the
// simplex has collapsed it runs the §3.2.2 convergence check instead.
func (p *PRO) Step(ev Evaluator) (StepInfo, error) {
	if !p.inited {
		return StepInfo{}, ErrNotInitialised
	}
	if p.converged {
		pt, v := p.simplex.Best()
		return StepInfo{Kind: StepConverged, Best: pt.Clone(), BestValue: v}, nil
	}
	p.simplex.Sort()
	if p.simplex.Collapsed(collapseTol) {
		return p.convergenceCheck(ev)
	}
	p.iters++
	startEvals := p.evals

	best, bestVal := p.simplex.Best()
	n := p.simplex.Len() - 1 // non-best vertices

	// Reflection step (line 5): reflect every non-best vertex in parallel.
	// With RemeasureBest, the incumbent rides along in the same batch and
	// its stored value is refreshed.
	refl := p.trials(n, len(best))
	for j := 1; j <= n; j++ {
		p.opts.project(space.TransformTo(refl[j-1], best, p.simplex.Vertices[j], 1), best)
	}
	if p.opts.RemeasureBest {
		refl = append(refl, best)
	}
	reflVals, err := ev.Eval(refl)
	if err != nil {
		return StepInfo{}, err
	}
	p.evals += len(refl)
	if p.opts.RemeasureBest {
		bestVal = reflVals[n]
		p.simplex.Values[0] = bestVal
		refl = refl[:n]
		reflVals = reflVals[:n]
	}

	// l = argmin_j f(r^j) (line 6).
	l := 0
	for j := 1; j < n; j++ {
		if reflVals[j] < reflVals[l] {
			l = j
		}
	}

	// Acceptance threshold: PRO demands improvement over the best vertex;
	// the Nelder–Mead ablation only demands improvement over the worst.
	threshold := bestVal
	if p.opts.NelderAcceptRule {
		_, threshold = p.simplex.Worst()
	}

	if reflVals[l] < threshold {
		// Reflection successful: expansion check (lines 7–9).
		if p.opts.EagerExpansion {
			info, err := p.expand(ev, best)
			if err == nil {
				info.Evals = p.evals - startEvals
			}
			return info, err
		}
		if p.check == nil {
			p.check = make([]space.Point, 1)
		}
		p.check[0] = p.opts.project(space.Expand(best, p.simplex.Vertices[l+1]), best)
		eVals, err := ev.Eval(p.check)
		if err != nil {
			return StepInfo{}, err
		}
		p.evals++
		if eVals[0] < reflVals[l] {
			info, err := p.expand(ev, best)
			if err == nil {
				info.Evals = p.evals - startEvals
			}
			return info, err
		}
		// Accept reflection (line 13).
		for j := 1; j <= n; j++ {
			p.simplex.Vertices[j] = refl[j-1]
			p.simplex.Values[j] = reflVals[j-1]
		}
		p.simplex.Sort()
		pt, v := p.simplex.Best()
		return StepInfo{Kind: StepReflect, Best: pt.Clone(), BestValue: v, Evals: p.evals - startEvals}, nil
	}

	// Reflection failed everywhere: shrink (line 16).
	shr := p.trials(n, len(best))
	for j := 1; j <= n; j++ {
		p.opts.project(space.ShrinkTo(shr[j-1], best, p.simplex.Vertices[j]), best)
	}
	shrVals, err := ev.Eval(shr)
	if err != nil {
		return StepInfo{}, err
	}
	p.evals += n
	for j := 1; j <= n; j++ {
		p.simplex.Vertices[j] = shr[j-1]
		p.simplex.Values[j] = shrVals[j-1]
	}
	p.simplex.Sort()
	pt, v := p.simplex.Best()
	return StepInfo{Kind: StepShrink, Best: pt.Clone(), BestValue: v, Evals: p.evals - startEvals}, nil
}

// finish certifies convergence and drops the reused batch slices, which a
// converged PRO never fills again, so a session that keeps the PRO holds
// only its final simplex.
func (p *PRO) finish() {
	p.converged = true
	p.batch, p.check = nil, nil
}

// trials returns the reused batch slice holding n fresh points of dimension
// dim on one new slab, with room to append the incumbent (RemeasureBest).
func (p *PRO) trials(n, dim int) []space.Point {
	if cap(p.batch) < n+1 {
		p.batch = make([]space.Point, n+1)
	}
	return space.OnSlab(p.batch[:n], dim)
}

// expand accepts the expansion: all n expansion points evaluated in parallel
// and adopted unconditionally, exactly as Algorithm 2 lines 10–11 prescribe
// (v_{k+1}^j = e_k^j). The caller overwrites StepInfo.Evals with the full
// iteration's evaluation count.
func (p *PRO) expand(ev Evaluator, best space.Point) (StepInfo, error) {
	n := p.simplex.Len() - 1
	exp := p.trials(n, len(best))
	for j := 1; j <= n; j++ {
		p.opts.project(space.TransformTo(exp[j-1], best, p.simplex.Vertices[j], 2), best)
	}
	expVals, err := ev.Eval(exp)
	if err != nil {
		return StepInfo{}, err
	}
	p.evals += n
	for j := 1; j <= n; j++ {
		p.simplex.Vertices[j] = exp[j-1]
		p.simplex.Values[j] = expVals[j-1]
	}
	p.simplex.Sort()
	pt, v := p.simplex.Best()
	return StepInfo{Kind: StepExpand, Best: pt.Clone(), BestValue: v, Evals: n}, nil
}

// convergenceCheck implements §3.2.2: probe the 2N neighbouring points of
// the best vertex; if none outperforms it, certify a local minimum,
// otherwise rebuild the simplex from the best vertex plus the probes and
// continue.
func (p *PRO) convergenceCheck(ev Evaluator) (StepInfo, error) {
	best, bestVal := p.simplex.Best()
	probes := space.ConvergenceProbe(p.opts.Space, best)
	if len(probes) == 0 {
		p.finish()
		return StepInfo{Kind: StepConverged, Best: best.Clone(), BestValue: bestVal}, nil
	}
	vals, err := ev.Eval(probes)
	if err != nil {
		return StepInfo{}, err
	}
	p.evals += len(probes)
	improved := false
	for _, v := range vals {
		if v < bestVal {
			improved = true
			break
		}
	}
	if !improved && !p.opts.Restless {
		p.finish()
		return StepInfo{Kind: StepConverged, Best: best.Clone(), BestValue: bestVal, Evals: len(probes)}, nil
	}
	// Continue PRO with the generated simplex: best vertex + probes.
	verts := make([]space.Point, 0, len(probes)+1)
	verts = append(verts, best.Clone())
	verts = append(verts, probes...)
	sim := space.NewSimplex(verts)
	sim.Values[0] = bestVal
	copy(sim.Values[1:], vals)
	sim.Sort()
	p.simplex = sim
	p.iters++
	pt, v := sim.Best()
	return StepInfo{Kind: StepProbe, Best: pt.Clone(), BestValue: v, Evals: len(probes)}, nil
}
