package core

import (
	"errors"

	"paratune/internal/event"
	"paratune/internal/space"
)

// RunSummary is the driver-independent outcome of a tuning run; Result and
// AsyncResult embed it so both drivers report the same core fields.
type RunSummary struct {
	// Best is the configuration in use at the end of the run.
	Best space.Point
	// BestValue is the optimiser's estimate for Best.
	BestValue float64
	// TrueValue is the noise-free cost of Best (the simulator oracle).
	TrueValue float64
	// Iterations counts the optimiser Step calls the driver made.
	Iterations int
	// DBHits and DBMisses count candidate evaluations served from /
	// forwarded past the measurement database (both 0 when no DB attached).
	DBHits   int
	DBMisses int
}

// EngineStats reports what one Engine.Run observed.
type EngineStats struct {
	// Iterations is the number of Step calls made.
	Iterations int
	// Converged reports whether the algorithm certified convergence.
	Converged bool
	// ConvergedStep is StepIndex() at certification, or -1 (always -1 when
	// no StepIndex source is configured).
	ConvergedStep int
	// ConvergedVTime is the virtual time at certification (0 if never).
	ConvergedVTime float64
}

// Engine is the single driver core behind RunOnline, RunOnlineAsync, and the
// harmony session loop: it initialises an Algorithm, steps it until the
// budget predicate or convergence stops it, and records one event per
// iteration. Budget accounting, production-tail fill-in, and result assembly
// stay with the callers, which own the simulator-specific state.
type Engine struct {
	// Alg is the optimiser to drive (required).
	Alg Algorithm
	// Ev is the evaluation service (required).
	Ev Evaluator
	// Rec receives iteration and convergence events. With nil or Nop the
	// engine builds no event at all.
	Rec event.Recorder
	// VTime supplies the current virtual time for event payloads; 0 when nil.
	VTime func() float64
	// StepIndex supplies the current simulator time step for convergence
	// bookkeeping; -1 when nil.
	StepIndex func() int
	// Continue is the budget predicate, called with the iteration count
	// before each Step; run-until-convergence when nil.
	Continue func(iterations int) bool
	// BeforeStep runs before each Step with the incumbent best the engine
	// already holds: Alg.Best() once, after Init (or at the start of a
	// resumed run), then each Step's StepInfo.Best. It must not write best.
	// RunOnline uses it to move the production fill configuration.
	BeforeStep func(best space.Point)
	// SkipInit resumes an already-initialised algorithm (a restored
	// checkpoint) without re-evaluating the initial simplex.
	SkipInit bool
	// Session labels iteration events with a harmony session name.
	Session string
}

// Run executes the drive loop and reports its stats. The returned stats are
// valid even when err is non-nil (they describe the work done so far).
func (e *Engine) Run() (EngineStats, error) {
	stats := EngineStats{ConvergedStep: -1}
	if e.Alg == nil {
		return stats, errors.New("core: nil algorithm")
	}
	if e.Ev == nil {
		return stats, errors.New("core: nil evaluator")
	}
	recording := event.Active(e.Rec)
	now := e.VTime
	if now == nil {
		now = func() float64 { return 0 }
	}
	stepIdx := e.StepIndex
	if stepIdx == nil {
		stepIdx = func() int { return -1 }
	}
	cont := e.Continue
	if cont == nil {
		cont = func(int) bool { return true }
	}

	// best is the incumbent BeforeStep sees: fetched from the algorithm
	// once, then reported by every Step.
	var best space.Point
	if !e.SkipInit {
		if err := e.Alg.Init(e.Ev); err != nil {
			return stats, err
		}
		if recording {
			var bv float64
			best, bv = e.Alg.Best()
			e.Rec.Record(event.Iteration{
				Session: e.Session, Iter: 0, Step: StepInit.String(),
				Best: best, BestValue: bv, VTime: now(),
			})
		}
	}
	if best == nil && e.BeforeStep != nil {
		best, _ = e.Alg.Best()
	}

	for cont(stats.Iterations) && !e.Alg.Converged() {
		if e.BeforeStep != nil {
			e.BeforeStep(best)
		}
		info, err := e.Alg.Step(e.Ev)
		if err != nil {
			return stats, err
		}
		best = info.Best
		stats.Iterations++
		if recording {
			e.Rec.Record(event.Iteration{
				Session: e.Session, Iter: stats.Iterations, Step: info.Kind.String(),
				Best: info.Best, BestValue: info.BestValue, Evals: info.Evals, VTime: now(),
			})
		}
		if info.Kind == StepConverged && !stats.Converged {
			e.converged(&stats, now, stepIdx, recording)
		}
	}
	// The loop can exit on Converged() without a StepConverged info having
	// surfaced in this run (e.g. a restored algorithm, or an algorithm whose
	// stopping rule flips between steps); account for it once.
	if e.Alg.Converged() && !stats.Converged {
		e.converged(&stats, now, stepIdx, recording)
	}
	return stats, nil
}

// converged stamps the convergence certificate into stats and, when
// recording, emits it.
func (e *Engine) converged(stats *EngineStats, now func() float64, stepIdx func() int, recording bool) {
	stats.Converged = true
	stats.ConvergedStep = stepIdx()
	stats.ConvergedVTime = now()
	if recording {
		e.Rec.Record(event.Converged{
			Session: e.Session, Iter: stats.Iterations,
			Step: maxZero(stats.ConvergedStep), VTime: stats.ConvergedVTime,
		})
	}
}

// maxZero clamps the "no step source" sentinel out of event payloads.
func maxZero(v int) int {
	if v < 0 {
		return 0
	}
	return v
}
