package core

import (
	"errors"
	"fmt"

	"paratune/internal/cluster"
	"paratune/internal/event"
	"paratune/internal/measuredb"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// OnlineConfig describes one on-line tuning run: the application must run
// for exactly Budget time steps (the paper's K); the optimiser spends those
// steps evaluating candidate configurations, and once it converges — or if
// it has nothing left to try — the remaining steps run at the best
// configuration found.
type OnlineConfig struct {
	// Sim is the SPMD cluster (required).
	Sim *cluster.Sim
	// F is the noise-free cost surface (required).
	F objective.Function
	// Est reduces repeated samples; Single when nil.
	Est sample.Estimator
	// Budget is the total number of application time steps K (required > 0).
	Budget int
	// ParallelSampling lets idle processors take extra samples per step.
	ParallelSampling bool
	// Recorder receives the run's event stream. When set it is also plumbed
	// into the simulator (per-step T_k, batch events) and any attached fault
	// injector; nil records nothing.
	Recorder event.Recorder
	// DB, when non-nil, is the measurement database: every raw candidate
	// measurement is recorded into it, and candidates whose estimate is
	// already resolved (>= Est.K() stored observations) are served from it
	// without spending simulator steps — the cross-session warm start.
	DB *measuredb.Store
}

// Result summarises an on-line tuning run.
type Result struct {
	// RunSummary holds Best, BestValue, TrueValue, and Iterations — the
	// fields shared with AsyncResult.
	RunSummary
	// Steps is the number of time steps executed (== Budget).
	Steps int
	// TotalTime is Total_Time(Budget) per Eq. 2.
	TotalTime float64
	// NTT is the Normalized Total Time (Eq. 23).
	NTT float64
	// StepTimes is T_k for k = 1..Budget. It shares the simulator's step
	// record, capped at Budget, and must not be written.
	StepTimes []float64
	// ConvergedAtStep is the time step at which the optimiser certified
	// convergence, or -1 if it never did within the budget.
	ConvergedAtStep int
}

// attachDB wires a driver's evaluator to the measurement database db, when
// one is set: the store binds to f's space, receives every raw measurement
// through sink, and serves already-resolved candidates through the returned
// Memo, which is then the evaluator the engine runs. Without a database it
// returns ev and a nil Memo.
func attachDB(db *measuredb.Store, f objective.Function, ev Evaluator, sink *cluster.ObservationSink,
	est sample.Estimator, rec event.Recorder, vtime func() float64) (Evaluator, *measuredb.Memo, error) {
	if db == nil {
		return ev, nil, nil
	}
	if err := db.BindSpace(f.Space().String()); err != nil {
		return nil, nil, err
	}
	*sink = db
	memo := measuredb.NewMemo(ev, db, est, rec, vtime)
	return memo, memo, nil
}

// RunOnline executes one on-line tuning session: it drives alg against the
// simulator until the step budget is exhausted, then runs the remaining
// steps at the best configuration. The returned metrics are truncated to
// exactly Budget steps even if the final optimiser iteration overshot.
func RunOnline(alg Algorithm, cfg OnlineConfig) (*Result, error) {
	if alg == nil {
		return nil, errors.New("core: nil algorithm")
	}
	if cfg.Sim == nil || cfg.F == nil {
		return nil, errors.New("core: OnlineConfig requires Sim and F")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("core: budget must be positive, got %d", cfg.Budget)
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
	// The run records Budget steps, and seldom more: a final iteration that
	// overshoots grows the record once.
	cfg.Sim.ReserveSteps(cfg.Budget)
	ev := cluster.NewEvaluator(cfg.Sim, cfg.F, est)
	ev.ParallelSampling = cfg.ParallelSampling
	// All P processors run every step (footnote 1); before tuning discovers
	// anything, the idle ones run the centre configuration.
	ev.Fill = cfg.F.Space().Center()

	// With a measurement database attached, raw observations flow into it and
	// resolved candidates are served from it instead of the cluster. Resolved
	// hits consume no simulator steps, so the step budget alone cannot bound
	// the loop on a fully warm store — an iteration backstop does.
	engineEv, memo, err := attachDB(cfg.DB, cfg.F, ev, &ev.Sink, est, cfg.Recorder, cfg.Sim.TotalTime)
	if err != nil {
		return nil, err
	}

	if recording {
		cfg.Recorder.Record(event.RunStart{
			Mode: "sync", Algorithm: alg.String(),
			Processors: cfg.Sim.P(), Budget: cfg.Budget,
		})
	}
	maxIter := 10 * cfg.Budget
	eng := &Engine{
		Alg:       alg,
		Ev:        engineEv,
		Rec:       cfg.Recorder,
		VTime:     cfg.Sim.TotalTime,
		StepIndex: cfg.Sim.Steps,
		Continue: func(iterations int) bool {
			if memo != nil && iterations >= maxIter {
				return false
			}
			return cfg.Sim.Steps() < cfg.Budget
		},
		BeforeStep: func(best space.Point) {
			if best != nil {
				ev.Fill = best
			}
		},
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}

	// Production phase: the application keeps running at the best
	// configuration on every live processor until the budget is reached.
	best, bestVal := alg.Best()
	prodAssign := make([]space.Point, cfg.Sim.P())
	for i := range prodAssign {
		prodAssign[i] = best
	}
	for cfg.Sim.Steps() < cfg.Budget {
		// With every processor crashed, RunStep reports it. Nobody reads a
		// production step's values, only its barrier time.
		live := max(1, cfg.Sim.Live())
		if _, err := cfg.Sim.RunStep(cfg.F, prodAssign[:live], 0); err != nil {
			return nil, err
		}
	}

	total, err := cfg.Sim.TotalTimeAt(cfg.Budget)
	if err != nil {
		return nil, err
	}
	stepTimes := cfg.Sim.StepTimes()
	if len(stepTimes) > cfg.Budget {
		stepTimes = stepTimes[:cfg.Budget:cfg.Budget]
	}
	res := &Result{
		RunSummary: RunSummary{
			Best:       best,
			BestValue:  bestVal,
			TrueValue:  cfg.F.Eval(best),
			Iterations: stats.Iterations,
		},
		Steps:           cfg.Budget,
		TotalTime:       total,
		NTT:             (1 - cfg.Sim.Model().Rho()) * total,
		StepTimes:       stepTimes,
		ConvergedAtStep: stats.ConvergedStep,
	}
	if memo != nil {
		res.DBHits, res.DBMisses = memo.Hits(), memo.Misses()
	}
	if recording {
		cfg.Recorder.Record(event.RunEnd{
			Mode: "sync", Best: best, BestValue: bestVal, TrueValue: res.TrueValue,
			Iterations: res.Iterations, TotalTime: res.TotalTime, NTT: res.NTT,
			VTime: res.TotalTime,
		})
	}
	return res, nil
}
