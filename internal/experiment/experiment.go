// Package experiment regenerates every figure in the paper's evaluation
// (the paper has no numbered tables): the metric-discrepancy illustration
// (Fig. 1), the variability study (Figs. 3–7), the GS2 surface (Fig. 8),
// the initial-simplex study (Fig. 9), and the headline multi-sampling sweep
// (Fig. 10), plus the ablations DESIGN.md calls out.
//
// Every runner is deterministic under a fixed Config.Seed, returns the raw
// data as CSV-ready rows, an ASCII rendering, and notes comparing the
// measured shape to the paper's claims.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/event"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/par"
	"paratune/internal/sample"
)

// Config scales an experiment run.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Replications per configuration; each figure documents its paper-scale
	// value. 0 selects the figure's default.
	Replications int
	// Quick shrinks replication counts and sweeps for tests and smoke runs.
	Quick bool
	// Trace, when set, receives the event stream of every tuning run a
	// figure performs (all replications share the one recorder; the
	// run_start/run_end envelopes delimit them). Replications run in
	// parallel, but Trace is only ever called from the figure's goroutine,
	// with the events in replication order: the serial stream.
	Trace event.Recorder
}

func (c Config) reps(def, quick int) int {
	if c.Replications > 0 {
		return c.Replications
	}
	if c.Quick {
		return quick
	}
	return def
}

// Figure is one regenerated result.
type Figure struct {
	ID        string
	Title     string
	CSVHeader []string
	CSVRows   [][]float64
	Rendered  string
	Notes     string
}

// Runner regenerates one figure.
type Runner func(Config) (*Figure, error)

// Registry maps figure IDs to runners, in presentation order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig1", Fig1MetricDiscrepancy},
		{"fig2", Fig2SimplexGeometry},
		{"fig3", Fig3Traces},
		{"fig4", Fig4Pdf},
		{"fig5", Fig5Tail},
		{"fig6", Fig6TruncatedPdf},
		{"fig7", Fig7TruncatedTail},
		{"fig8", Fig8Surface},
		{"fig9", Fig9InitialSimplex},
		{"fig10", Fig10MultiSampling},
		{"ablation-estimators", AblationEstimators},
		{"ablation-expansion", AblationExpansionCheck},
		{"ablation-accept", AblationAcceptRule},
		{"ablation-projection", AblationProjection},
		{"ablation-remeasure", AblationRemeasure},
		{"ext-adaptive-k", ExtAdaptiveK},
		{"ext-async", ExtAsync},
		{"ext-parallel-sampling", ExtParallelSampling},
		{"ext-shared-noise", ExtSharedNoise},
	}
}

// Run looks a figure up by ID and executes it.
func Run(id string, cfg Config) (*Figure, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("experiment: unknown figure %q", id)
}

// simProcs is the simulated SPMD width for the tuning experiments. The
// paper's GS2 runs used a 64-node cluster, but its §6 simulations gate each
// time step on the points being evaluated (≤ 2N = 6 candidates for the
// three-parameter space); 8 processors cover the candidate batch plus a
// small incumbent-running remainder.
const simProcs = 8

// gs2Config is the canonical surrogate configuration for a seed.
func gs2Config(seed int64) objective.GS2Config {
	return objective.GS2Config{Seed: seed, Coverage: 0.85}
}

// gs2DB builds the canonical surrogate database for a seed.
func gs2DB(seed int64) *objective.DB { return objective.GenerateGS2(gs2Config(seed)) }

// forEach runs job(i, rec) for every i in [0, n) on par.For's pool. Each job
// must write its results only into its own index slot; callers combine the
// slots afterwards, in index order, so sums keep their serial float bits.
// rec is nil when cfg.Trace is; otherwise each job records into its own
// buffer, and the buffers are replayed into cfg.Trace in index order from
// the calling goroutine. The error returned is the lowest-index job's, and
// the replay stops after that job's events, where a serial loop would have.
func forEach(cfg Config, n int, job func(i int, rec event.Recorder) error) error {
	errs := make([]error, n)
	var bufs []event.Memory
	if cfg.Trace != nil {
		bufs = make([]event.Memory, n)
	}
	par.For(n, func(i int) {
		var rec event.Recorder
		if bufs != nil {
			rec = &bufs[i]
		}
		errs[i] = job(i, rec)
	})
	for i, err := range errs {
		if bufs != nil {
			for _, e := range bufs[i].Events() {
				cfg.Trace.Record(e)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// onlineRun performs one tuning run and returns its result; rec (nil for
// none) receives the run's event stream.
func onlineRun(alg core.Algorithm, f objective.Function, rho float64, k, budget, procs int, seed int64, rec event.Recorder) (*core.Result, error) {
	model, err := paretoNoise(rho)
	if err != nil {
		return nil, err
	}
	sim, err := cluster.New(procs, model, seed)
	if err != nil {
		return nil, err
	}
	est, err := minOfK(k)
	if err != nil {
		return nil, err
	}
	return core.RunOnline(alg, core.OnlineConfig{Sim: sim, F: f, Est: est, Budget: budget, Recorder: rec})
}

// paretoNoise is the §6 variability at idle throughput rho: i.i.d.
// Pareto(1.7) noise, or none at rho = 0.
func paretoNoise(rho float64) (noise.Model, error) {
	if rho > 0 {
		return noise.NewIIDPareto(1.7, rho)
	}
	return noise.None{}, nil
}

// minOfK is the min-of-K estimator; k <= 1 takes a single sample.
func minOfK(k int) (sample.Estimator, error) {
	if k > 1 {
		return sample.NewMinOfK(k)
	}
	return sample.Single{}, nil
}

// meanOf averages a slice.
func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// argminIdx returns the index of the smallest element.
func argminIdx(xs []float64) int {
	bi := 0
	for i, x := range xs {
		if x < xs[bi] {
			bi = i
		}
	}
	return bi
}

// notes joins note lines.
func notes(lines ...string) string { return strings.Join(lines, "\n") }

// sortedKeys returns sorted float keys of a map.
func sortedKeys(m map[float64][]float64) []float64 {
	ks := make([]float64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Float64s(ks)
	return ks
}
