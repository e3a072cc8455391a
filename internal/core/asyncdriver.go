package core

import (
	"errors"
	"fmt"

	"paratune/internal/cluster"
	"paratune/internal/event"
	"paratune/internal/measuredb"
	"paratune/internal/objective"
	"paratune/internal/sample"
)

// AsyncConfig describes an on-line tuning run on the unsynchronised cluster
// of footnote 1: instead of a step budget, the application has a wall-clock
// budget (virtual seconds); tuning proposes work until the optimiser
// converges or the budget is spent, and the remainder runs at the best
// configuration.
type AsyncConfig struct {
	// Sim is the asynchronous cluster (required).
	Sim *cluster.AsyncSim
	// F is the noise-free cost surface (required).
	F objective.Function
	// Est reduces repeated samples; Single when nil.
	Est sample.Estimator
	// TimeBudget is the virtual wall-clock budget in seconds (required > 0).
	TimeBudget float64
	// MaxIterations bounds the optimiser loop (default 10000) as a backstop
	// for restless algorithms.
	MaxIterations int
	// Recorder receives the run's event stream. When set it is also plumbed
	// into the simulator and any attached fault injector; nil records nothing.
	Recorder event.Recorder
	// DB, when non-nil, is the measurement database: raw completions are
	// recorded into it and already-resolved candidates are served from it
	// without consuming virtual time (see OnlineConfig.DB).
	DB *measuredb.Store
}

// AsyncResult summarises an asynchronous tuning run.
type AsyncResult struct {
	// RunSummary holds Best, BestValue, TrueValue, and Iterations — the
	// fields shared with Result.
	RunSummary
	// TuningTime is the makespan consumed by the search itself.
	TuningTime float64
	// ProductionSteps is how many application iterations ran at Best within
	// the remaining budget (per processor).
	ProductionSteps int
	// Converged reports whether the optimiser certified a local minimum
	// within the budget.
	Converged bool
}

// RunOnlineAsync executes one asynchronous on-line tuning session.
func RunOnlineAsync(alg Algorithm, cfg AsyncConfig) (*AsyncResult, error) {
	if alg == nil {
		return nil, errors.New("core: nil algorithm")
	}
	if cfg.Sim == nil || cfg.F == nil {
		return nil, errors.New("core: AsyncConfig requires Sim and F")
	}
	if !(cfg.TimeBudget > 0) {
		return nil, fmt.Errorf("core: time budget must be positive, got %g", cfg.TimeBudget)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 10000
	}
	est := cfg.Est
	if est == nil {
		est = sample.Single{}
	}
	recording := event.Active(cfg.Recorder)
	if cfg.Recorder != nil {
		cfg.Sim.SetRecorder(cfg.Recorder)
		cfg.Sim.Faults().SetRecorder(cfg.Recorder)
	}
	ev := &cluster.AsyncEvaluator{Sim: cfg.Sim, F: cfg.F, Est: est}
	engineEv, memo, err := attachDB(cfg.DB, cfg.F, ev, &ev.Sink, est, cfg.Recorder, cfg.Sim.Makespan)
	if err != nil {
		return nil, err
	}

	if recording {
		cfg.Recorder.Record(event.RunStart{
			Mode: "async", Algorithm: alg.String(),
			Processors: cfg.Sim.P(), TimeBudget: cfg.TimeBudget,
		})
	}
	eng := &Engine{
		Alg:   alg,
		Ev:    engineEv,
		Rec:   cfg.Recorder,
		VTime: cfg.Sim.Makespan,
		Continue: func(iterations int) bool {
			return cfg.Sim.Makespan() < cfg.TimeBudget && iterations < cfg.MaxIterations
		},
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}

	best, bestVal := alg.Best()
	trueVal := cfg.F.Eval(best)
	tuning := cfg.Sim.Makespan()

	// Production: every processor runs the best configuration for the rest
	// of the budget; count whole iterations per processor at the noise-free
	// rate (a conservative estimate — noise only reduces the count).
	production := 0
	if remaining := cfg.TimeBudget - tuning; remaining > 0 && trueVal > 0 {
		production = int(remaining / trueVal)
	}

	res := &AsyncResult{
		RunSummary: RunSummary{
			Best:       best,
			BestValue:  bestVal,
			TrueValue:  trueVal,
			Iterations: stats.Iterations,
		},
		TuningTime:      tuning,
		ProductionSteps: production,
		Converged:       stats.Converged,
	}
	if memo != nil {
		res.DBHits, res.DBMisses = memo.Hits(), memo.Misses()
	}
	if recording {
		cfg.Recorder.Record(event.RunEnd{
			Mode: "async", Best: best, BestValue: bestVal, TrueValue: trueVal,
			Iterations: res.Iterations, VTime: tuning,
		})
	}
	return res, nil
}
