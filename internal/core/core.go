// Package core implements the paper's contribution: the Parallel Rank
// Ordering (PRO) direct search algorithm (Algorithm 2), its sequential
// ancestor SRO (Algorithm 1), and the on-line tuning loop that drives them
// against a barrier-synchronised SPMD application with a fixed step budget.
//
// PRO belongs to the Generating Set Search class (Kolda et al.), giving it
// the convergence guarantees the Nelder–Mead simplex lacks, and it exploits
// SPMD parallelism by evaluating entire simplex transformations — all
// reflections, all expansions, or all shrinks — concurrently.
package core

import (
	"errors"
	"fmt"

	"paratune/internal/space"
)

// Evaluator provides batched point evaluation. Implementations decide how
// many samples back each estimate and what each batch costs in time steps;
// cluster.Evaluator is the standard implementation.
type Evaluator interface {
	// Eval returns one performance estimate per point, in order. The
	// returned slice belongs to the caller, which may hold it across later
	// Eval calls (PRO reads its reflection values after the expansion
	// check), so an implementation must not reuse it as an output buffer.
	// The points are never written after the call: PRO builds every batch
	// from fresh points. The slice holding them stays the caller's, which
	// may reorder it (PRO sorts the simplex it evaluated in place) or refill
	// it with the next batch (PRO reuses one batch slice across steps), so
	// an implementation that keeps the batch past returning copies the
	// slice; it may keep the points themselves.
	Eval(points []space.Point) ([]float64, error)
}

// StepKind identifies the transformation an algorithm iteration accepted.
type StepKind int

const (
	// StepInit is the initial simplex evaluation.
	StepInit StepKind = iota
	// StepReflect means the reflected simplex was accepted.
	StepReflect
	// StepExpand means the expanded simplex was accepted.
	StepExpand
	// StepShrink means the simplex was shrunk toward its best vertex.
	StepShrink
	// StepProbe is a §3.2.2 convergence check that found an improving
	// neighbour and rebuilt the simplex from the probe points.
	StepProbe
	// StepConverged is a §3.2.2 convergence check that certified a local
	// minimum; the algorithm stops proposing new points.
	StepConverged
)

// String names the step kind.
func (k StepKind) String() string {
	switch k {
	case StepInit:
		return "init"
	case StepReflect:
		return "reflect"
	case StepExpand:
		return "expand"
	case StepShrink:
		return "shrink"
	case StepProbe:
		return "probe"
	case StepConverged:
		return "converged"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// StepInfo reports what one algorithm iteration did.
type StepInfo struct {
	Kind      StepKind
	BestValue float64
	Best      space.Point
	Evals     int // points evaluated this iteration
}

// Algorithm is an iterative on-line tuning optimiser. Implementations keep
// internal state between Step calls; the driver decides when to stop.
type Algorithm interface {
	// Init evaluates the starting state (e.g. the initial simplex).
	Init(ev Evaluator) error
	// Step performs one iteration. Calling Step after convergence is legal
	// and returns a StepConverged info without evaluating anything.
	Step(ev Evaluator) (StepInfo, error)
	// Best returns the best configuration discovered and its estimate.
	Best() (space.Point, float64)
	// Converged reports whether a §3.2.2-style local-minimum certificate
	// (or an algorithm-specific stopping rule) has been reached.
	Converged() bool
	String() string
}

// ErrNotInitialised is returned by Step when Init has not been called.
var ErrNotInitialised = errors.New("core: algorithm not initialised")

// Shape selects the initial simplex construction of §6.1.
type Shape int

const (
	// Shape2N is the 2N-vertex simplex {Π(c ± b_i e_i)}; the paper's choice.
	Shape2N Shape = iota
	// ShapeMinimal is the minimal N+1-vertex simplex.
	ShapeMinimal
)

// String names the shape.
func (s Shape) String() string {
	if s == ShapeMinimal {
		return "minimal"
	}
	return "2N"
}

// collapseTol is the spread below which the simplex counts as collapsed for
// the convergence check (discrete spaces collapse exactly).
const collapseTol = 1e-6

// Options configures PRO and SRO.
type Options struct {
	// Space is the admissible region (required).
	Space *space.Space
	// Center is the initial simplex centre; the region centre when nil.
	Center space.Point
	// R is the initial simplex relative size (§6.1); default 0.2,
	// matching §3.2.3's b_i = 0.1·(u_i − l_i).
	R float64
	// SimplexShape picks the 2N (default) or minimal construction.
	SimplexShape Shape
	// EagerExpansion disables the §3.2 expansion *check* and expands the
	// whole simplex as soon as reflection succeeds. Ablation knob: the paper
	// found checking the most promising point first avoids very poor
	// expansion points.
	EagerExpansion bool
	// NelderAcceptRule accepts a reflection when it beats the *worst* vertex
	// (the Nelder–Mead rule) instead of PRO's better-than-best rule.
	// Ablation knob.
	NelderAcceptRule bool
	// ProjectNearest uses plain nearest-value rounding instead of §3.2.1's
	// round-toward-centre projection. Ablation knob.
	ProjectNearest bool
	// Restless keeps the optimiser tuning even after a failed §3.2.2
	// certificate: the probe simplex is adopted and the search continues
	// instead of stopping. This models the paper's §6 simulations, where
	// the tuner runs for the entire fixed step budget; the driver must
	// bound the run (Restless algorithms never report convergence).
	Restless bool
	// Seed drives the stochastic baseline algorithms (random, annealing,
	// genetic) when constructed through the registry; the deterministic
	// simplex algorithms ignore it.
	Seed int64
	// Batch is the proposals-per-iteration width for the batch-style
	// baselines constructed through the registry (random sampling batch,
	// genetic population); each algorithm applies its own default when 0.
	Batch int
	// RemeasureBest re-evaluates the best vertex alongside each parallel
	// reflection batch (free in time steps: it rides with the batch) and
	// uses the fresh measurement as the acceptance threshold and stored
	// value. This models a live tuning system in which the incumbent
	// configuration keeps being measured rather than keeping its luckiest
	// historical draw; it makes single-sample comparisons two-sided noisy —
	// the regime §5's min-of-K sampling is designed to repair.
	RemeasureBest bool
}

// ValidateOptions validates o and fills defaults in place; exported for the
// baseline algorithms that share the Options struct.
func ValidateOptions(o *Options) error { return o.normalise() }

func (o *Options) normalise() error {
	if o.Space == nil {
		return errors.New("core: Options.Space is required")
	}
	if o.R <= 0 {
		o.R = 0.2
	}
	if o.Center != nil && !o.Space.Admissible(o.Center) {
		return fmt.Errorf("core: centre %v not admissible in %v", o.Center, o.Space)
	}
	return nil
}

// project applies the configured projection rule to x in place and returns
// it, so a transformed trial point costs its one allocation. x must be a
// fresh point that aliases neither center nor any simplex vertex.
func (o *Options) project(x, center space.Point) space.Point {
	if o.ProjectNearest {
		return o.Space.ProjectNearestTo(x, x)
	}
	return o.Space.ProjectTo(x, x, center)
}

// initialSimplex builds the configured starting simplex.
func (o *Options) initialSimplex() *space.Simplex {
	if o.SimplexShape == ShapeMinimal {
		return space.InitialMinimal(o.Space, o.Center, o.R)
	}
	return space.Initial2N(o.Space, o.Center, o.R)
}
