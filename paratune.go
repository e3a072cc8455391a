// Package paratune is a parallel, noise-resilient on-line parameter tuner —
// a reproduction of "Parallel Parameter Tuning for Applications with
// Performance Variability" (Tabatabaee, Tiwari, Hollingsworth; SC 2005).
//
// The library tunes integer, discrete, and continuous parameters of
// iterative SPMD applications using the Parallel Rank Ordering (PRO) direct
// search algorithm, estimating each configuration's cost as the minimum of K
// repeated measurements so tuning stays reliable even when run-time
// variability is heavy-tailed (Pareto-like, with infinite variance).
//
// Three entry points:
//
//   - Minimize: offline minimisation of a user cost function over a
//     parameter space.
//   - Tune: a full on-line tuning simulation — a P-processor SPMD cluster
//     with a configurable variability model runs the application for a fixed
//     step budget while the optimiser tunes it; returns Total_Time metrics.
//   - ListenAndServe: an Active-Harmony-style TCP tuning server that real
//     applications drive with fetch/report calls.
package paratune

import (
	"errors"
	"fmt"
	"io"
	"net"

	_ "paratune/internal/baseline" // registers the baseline algorithms
	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/event"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// Param describes one tunable parameter.
type Param = space.Parameter

// Space is a validated parameter space.
type Space = space.Space

// Result summarises an on-line tuning run (see core.Result).
type Result = core.Result

// Recorder consumes the structured event stream a tuning run emits (run
// lifecycle, optimiser iterations, per-step times, faults). See
// internal/event for the taxonomy; all payloads carry virtual time only.
type Recorder = event.Recorder

// AlgorithmInfo is the registry metadata of one tuning algorithm.
type AlgorithmInfo = core.Info

// Algorithms lists every registered tuning algorithm, sorted by name.
func Algorithms() []AlgorithmInfo { return core.Algorithms() }

// NewJSONLRecorder returns a Recorder that writes one JSON envelope per event
// to w — the format cmd/traceanalyze parses. With a fixed seed the emitted
// stream is byte-identical across runs.
func NewJSONLRecorder(w io.Writer) Recorder { return event.NewJSONL(w) }

// Int returns an integer parameter on [lo, hi].
func Int(name string, lo, hi int) Param { return space.IntParam(name, lo, hi) }

// Float returns a continuous parameter on [lo, hi].
func Float(name string, lo, hi float64) Param { return space.ContinuousParam(name, lo, hi) }

// Choice returns a parameter restricted to the given values.
func Choice(name string, values ...float64) Param { return space.DiscreteParam(name, values...) }

// NewSpace validates the parameters and builds a Space.
func NewSpace(params ...Param) (*Space, error) { return space.New(params...) }

// Options configures Minimize and Tune.
type Options struct {
	// Algorithm: "pro" (default), "sro", "nelder-mead", "random",
	// "annealing", "genetic", "compass".
	Algorithm string
	// Estimator: "min" (default), "mean", "median", "single", "adaptive".
	Estimator string
	// Samples is K, the measurements per configuration (default 1 for
	// Minimize, 3 for Tune under noise).
	Samples int
	// R is the initial simplex relative size (default 0.2).
	R float64
	// MinimalSimplex selects the N+1-vertex initial simplex instead of 2N.
	MinimalSimplex bool
	// Processors is the simulated SPMD width for Tune (default 16).
	Processors int
	// Budget is the application step budget K for Tune (default 100).
	Budget int
	// MaxIterations bounds Minimize (default 1000).
	MaxIterations int
	// Seed drives all randomness (default 1).
	Seed int64
	// Rho is the idle throughput of the simulated variability (Tune only);
	// 0 disables noise.
	Rho float64
	// Alpha is the Pareto tail index of the variability (default 1.7).
	Alpha float64
	// ParallelSampling lets idle processors take extra samples per step.
	ParallelSampling bool
	// Center optionally warm-starts the simplex algorithms at a known-good
	// configuration (for example the best point of a prior run's database)
	// instead of the region centre.
	Center []float64
	// Recorder, when set, receives the run's structured event stream (Tune,
	// TuneGS2, and TuneAsync only; Minimize has no simulated cluster).
	Recorder Recorder
	// DBPath, when set, opens (creating if needed) a persistent measurement
	// database in that directory: every raw measurement is recorded, and
	// configurations already measured to K observations are served from the
	// store instead of the cluster — so a second run on the same directory
	// warm-starts from the first (Tune, TuneGS2, and TuneAsync only).
	DBPath string
}

func (o *Options) normalise(underNoise bool) {
	if o.Algorithm == "" {
		o.Algorithm = "pro"
	}
	if o.Estimator == "" {
		o.Estimator = "min"
	}
	if o.Samples <= 0 {
		if underNoise {
			o.Samples = 3
		} else {
			o.Samples = 1
		}
	}
	if o.R <= 0 {
		o.R = 0.2
	}
	if o.Processors <= 0 {
		o.Processors = 16
	}
	if o.Budget <= 0 {
		o.Budget = 100
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Alpha == 0 {
		o.Alpha = 1.7
	}
}

// buildAlgorithm constructs the named optimiser through the core registry.
func buildAlgorithm(name string, s *Space, o Options) (core.Algorithm, error) {
	shape := core.Shape2N
	if o.MinimalSimplex {
		shape = core.ShapeMinimal
	}
	alg, err := core.NewByName(name, core.Options{
		Space: s, R: o.R, SimplexShape: shape, Center: space.Point(o.Center),
		Seed: o.Seed, Batch: o.Processors,
	})
	if err != nil {
		return nil, fmt.Errorf("paratune: %w", err)
	}
	return alg, nil
}

// buildEstimator constructs the named estimator with K = samples.
func buildEstimator(name string, samples int) (sample.Estimator, error) {
	switch name {
	case "adaptive":
		max := samples * 3
		if max < samples+2 {
			max = samples + 2
		}
		return sample.NewAdaptiveMin(samples, max, 0.02, 2)
	case "controlled":
		// §5.2 adaptive-K controller: starts at `samples` and re-solves
		// Eq. 22 from the observed variability.
		maxK := samples * 4
		if maxK < samples+4 {
			maxK = samples + 4
		}
		tuner, err := sample.NewKTuner(1.7, 0.05, 0.05, samples, maxK)
		if err != nil {
			return nil, err
		}
		return sample.NewControlled(tuner)
	default:
		return sample.New(name, samples)
	}
}

// funcObjective adapts a user function to objective.Function.
type funcObjective struct {
	s  *Space
	fn func([]float64) float64
}

func (f *funcObjective) Eval(x space.Point) float64 { return f.fn([]float64(x)) }
func (f *funcObjective) Space() *Space              { return f.s }
func (f *funcObjective) String() string             { return "user-function" }

// directEvaluator evaluates points immediately (Minimize has no cluster).
type directEvaluator struct {
	f objective.Function
}

func (d directEvaluator) Eval(points []space.Point) ([]float64, error) {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = d.f.Eval(p)
	}
	return out, nil
}

// Minimize searches s for a local minimiser of fn using the configured
// algorithm, evaluating fn directly (no simulated cluster, no noise). It
// returns the best point found, its value, and whether the algorithm
// certified convergence within MaxIterations.
func Minimize(s *Space, fn func([]float64) float64, opts Options) ([]float64, float64, bool, error) {
	if s == nil || fn == nil {
		return nil, 0, false, errors.New("paratune: Minimize requires a space and a function")
	}
	opts.normalise(false)
	alg, err := buildAlgorithm(opts.Algorithm, s, opts)
	if err != nil {
		return nil, 0, false, err
	}
	eng := &core.Engine{
		Alg:      alg,
		Ev:       directEvaluator{f: &funcObjective{s: s, fn: fn}},
		Continue: func(iterations int) bool { return iterations < opts.MaxIterations },
	}
	if _, err := eng.Run(); err != nil {
		return nil, 0, false, err
	}
	best, val := alg.Best()
	return []float64(best), val, alg.Converged(), nil
}

// Tune runs a full on-line tuning simulation of fn on a P-processor SPMD
// cluster with i.i.d. Pareto variability at idle throughput Rho (Eq. 17
// scaling), for exactly Budget application time steps. fn must be a pure
// function of its argument: each step calls it once per candidate, however
// many processors run that candidate.
func Tune(s *Space, fn func([]float64) float64, opts Options) (*Result, error) {
	if s == nil || fn == nil {
		return nil, errors.New("paratune: Tune requires a space and a function")
	}
	opts.normalise(opts.Rho > 0)
	f := &funcObjective{s: s, fn: fn}
	return tuneFunction(f, opts)
}

// TuneGS2 runs the on-line tuning simulation against the built-in GS2
// surrogate database, the paper's §6 setup.
func TuneGS2(opts Options) (*Result, error) {
	opts.normalise(opts.Rho > 0)
	db := objective.GenerateGS2(objective.GS2Config{Seed: opts.Seed})
	return tuneFunction(db, opts)
}

// openDB opens the Options-level measurement database bound to the run's
// search space, or returns nil when none is configured. Binding at open time
// stamps the space signature into a fresh store's WAL header, so a later
// open of the same directory with a different space fails loudly.
func openDB(opts Options, s *Space) (*measuredb.Store, error) {
	if opts.DBPath == "" {
		return nil, nil
	}
	return measuredb.Open(opts.DBPath, measuredb.Options{
		Seed: opts.Seed, Space: s.String(), Recorder: opts.Recorder,
	})
}

// closeDB folds a store's Close error into the run's, preferring the run's.
func closeDB(db *measuredb.Store, err error) error {
	if db == nil {
		return err
	}
	if cerr := db.Close(); err == nil {
		return cerr
	}
	return err
}

// runParts is what both on-line drivers build from Options: the noise
// model, the algorithm, the estimator and the optional measurement store.
type runParts struct {
	model noise.Model
	alg   core.Algorithm
	est   sample.Estimator
	db    *measuredb.Store
}

// buildRun builds the parts of an on-line run over s. It opens the store
// last, so an error leaves nothing to close.
func buildRun(s *Space, opts Options) (runParts, error) {
	r := runParts{model: noise.None{}}
	if opts.Rho > 0 {
		m, err := noise.NewIIDPareto(opts.Alpha, opts.Rho)
		if err != nil {
			return r, err
		}
		r.model = m
	}
	var err error
	if r.alg, err = buildAlgorithm(opts.Algorithm, s, opts); err != nil {
		return r, err
	}
	if r.est, err = buildEstimator(opts.Estimator, opts.Samples); err != nil {
		return r, err
	}
	r.db, err = openDB(opts, s)
	return r, err
}

func tuneFunction(f objective.Function, opts Options) (*Result, error) {
	r, err := buildRun(f.Space(), opts)
	if err != nil {
		return nil, err
	}
	sim, err := cluster.New(opts.Processors, r.model, opts.Seed)
	if err != nil {
		return nil, closeDB(r.db, err)
	}
	res, err := core.RunOnline(r.alg, core.OnlineConfig{
		Sim: sim, F: f, Est: r.est,
		Budget: opts.Budget, ParallelSampling: opts.ParallelSampling,
		Recorder: opts.Recorder, DB: r.db,
	})
	if err = closeDB(r.db, err); err != nil {
		return nil, err
	}
	return res, nil
}

// AsyncResult summarises an asynchronous tuning run (see core.AsyncResult).
type AsyncResult = core.AsyncResult

// TuneAsync runs the on-line tuning simulation on the asynchronous cluster
// model (the paper's footnote 1: no barrier, every processor advances its
// own clock). timeBudget is the virtual wall-clock budget in seconds; the
// remaining Options fields keep their Tune meanings. fn must be a pure
// function of its argument: it is called once per submitted candidate, for
// all of that candidate's samples.
func TuneAsync(s *Space, fn func([]float64) float64, timeBudget float64, opts Options) (*AsyncResult, error) {
	if s == nil || fn == nil {
		return nil, errors.New("paratune: TuneAsync requires a space and a function")
	}
	opts.normalise(opts.Rho > 0)
	r, err := buildRun(s, opts)
	if err != nil {
		return nil, err
	}
	sim, err := cluster.NewAsync(opts.Processors, r.model, opts.Seed)
	if err != nil {
		return nil, closeDB(r.db, err)
	}
	res, err := core.RunOnlineAsync(r.alg, core.AsyncConfig{
		Sim: sim, F: &funcObjective{s: s, fn: fn}, Est: r.est, TimeBudget: timeBudget,
		Recorder: opts.Recorder, DB: r.db,
	})
	if err = closeDB(r.db, err); err != nil {
		return nil, err
	}
	return res, nil
}

// GS2Space returns the paper's three-parameter GS2 tuning space.
func GS2Space() *Space { return objective.GS2Space() }

// MeasurementDB is a persistent, concurrent measurement database: raw
// measurements append to a WAL, per-configuration min-of-K estimates are
// served back on exact re-lookups, and a store shared across runs (or
// attached to ServerOptions.DB) warm-starts tuning from prior sessions.
type MeasurementDB = measuredb.Store

// OpenMeasurementDB opens (creating if needed) the measurement database in
// dir. The seed is persisted on first creation; an existing store keeps its
// own. Close it when done to flush the write-ahead log.
func OpenMeasurementDB(dir string, seed int64) (*MeasurementDB, error) {
	return measuredb.Open(dir, measuredb.Options{Seed: seed})
}

// Server is an Active-Harmony-style tuning server.
type Server = harmony.Server

// ServerOptions configures a tuning server.
type ServerOptions = harmony.ServerOptions

// Client is a TCP client of a tuning server.
type Client = harmony.Client

// FetchResult is one unit of work from a tuning server.
type FetchResult = harmony.FetchResult

// NewServer creates an in-process tuning server.
func NewServer(opts ServerOptions) *Server { return harmony.NewServer(opts) }

// ListenAndServe starts a TCP tuning server on addr. It returns the bound
// listener (whose Close stops accepting) and the server; Serve runs on a
// background goroutine.
func ListenAndServe(addr string, opts ServerOptions) (net.Listener, *Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := harmony.NewServer(opts)
	go func() { _ = harmony.Serve(l, srv) }()
	return l, srv, nil
}

// Dial connects to a TCP tuning server.
func Dial(addr string) (*Client, error) { return harmony.Dial(addr) }
