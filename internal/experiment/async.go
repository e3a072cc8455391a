package experiment

import (
	"fmt"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/objective"
	"paratune/internal/plot"
	"paratune/internal/sample"
)

// ExtAsync quantifies footnote 1 of the paper: "Our actual tuning system
// works for applications that do not have this synchronization requirement."
// The same PRO search runs twice on identical noise seeds — once against the
// barrier-synchronised cluster (every sample step costs the max over all
// processors) and once against the asynchronous cluster (each processor
// advances its own clock, so a straggler delays only itself) — and the
// wall-clock cost of the tuning activity is compared. Heavy-tailed noise
// amplifies the barrier's max-of-P penalty, so the async advantage grows
// with ρ.
func ExtAsync(cfg Config) (*Figure, error) {
	db := gs2DB(cfg.Seed)
	reps := cfg.reps(150, 6)
	const iters = 30
	const k = 2
	rhos := []float64{0, 0.1, 0.2, 0.3, 0.4}
	if cfg.Quick {
		rhos = []float64{0, 0.3}
	}

	rng := dist.NewRNG(cfg.Seed + 7)
	seeds := make([]int64, reps)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}

	// One job per (rho, replication); each job runs the barrier and the async
	// search on the same seed.
	barrier := make([]float64, len(rhos)*reps)
	async := make([]float64, len(barrier))
	err := forEach(cfg, len(barrier), func(i int, rec event.Recorder) error {
		rho, seed := rhos[i/reps], seeds[i%reps]
		est, err := sample.NewMinOfK(k)
		if err != nil {
			return err
		}

		// Barrier run.
		mb, err := paretoNoise(rho)
		if err != nil {
			return err
		}
		bsim, err := cluster.New(simProcs, mb, seed)
		if err != nil {
			return err
		}
		bsim.SetRecorder(rec)
		bstart := event.RunStart{Mode: "sync", Processors: simProcs}
		if err := iterate(db, cluster.NewEvaluator(bsim, db, est), bstart, iters, bsim.TotalTime, rec); err != nil {
			return err
		}
		barrier[i] = bsim.TotalTime()

		// Async run, same seed.
		ma, err := paretoNoise(rho)
		if err != nil {
			return err
		}
		asim, err := cluster.NewAsync(simProcs, ma, seed)
		if err != nil {
			return err
		}
		asim.SetRecorder(rec)
		astart := event.RunStart{Mode: "async", Processors: simProcs}
		aev := &cluster.AsyncEvaluator{Sim: asim, F: db, Est: est}
		if err := iterate(db, aev, astart, iters, asim.Makespan, rec); err != nil {
			return err
		}
		async[i] = asim.Makespan()
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows [][]float64
	var barrierMeans, asyncMeans, ratios []float64
	for ri, rho := range rhos {
		b, a := meanOf(barrier[ri*reps:(ri+1)*reps]), meanOf(async[ri*reps:(ri+1)*reps])
		barrierMeans = append(barrierMeans, b)
		asyncMeans = append(asyncMeans, a)
		ratios = append(ratios, b/a)
		rows = append(rows, []float64{rho, b, a, b / a})
	}

	rendered, err := plot.Line(plot.Config{
		Title:  "Extension — barrier vs async tuning cost (wall-clock of the search)",
		XLabel: "rho", YLabel: "seconds",
	},
		plot.Series{Name: "barrier Total_Time", X: rhos, Y: barrierMeans},
		plot.Series{Name: "async makespan", X: rhos, Y: asyncMeans},
	)
	if err != nil {
		return nil, err
	}
	var lines []string
	for i, rho := range rhos {
		lines = append(lines, fmt.Sprintf("rho=%.2f: barrier %.2f vs async %.2f (speedup %.2fx)",
			rho, barrierMeans[i], asyncMeans[i], ratios[i]))
	}
	growing := ratios[len(ratios)-1] > ratios[0]
	lines = append(lines, fmt.Sprintf(
		"async speedup grows with variability: %v — heavy tails amplify the barrier's max-of-P penalty (footnote 1)", growing))
	return &Figure{
		ID:        "ext-async",
		Title:     "Asynchronous tuning extension (footnote 1)",
		CSVHeader: []string{"rho", "barrier_total_time", "async_makespan", "speedup"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes:     notes(lines...),
	}, nil
}

// iterate initialises a fresh PRO search on ev and steps it at most iters
// times, stopping early once it converges, as one run_start/run_end
// bracketed tuning run on rec (nil for none). start supplies the run's mode
// and width; vtime its virtual clock.
func iterate(f objective.Function, ev core.Evaluator, start event.RunStart, iters int, vtime func() float64, rec event.Recorder) error {
	alg, err := core.NewPRO(core.Options{Space: f.Space(), R: 0.2})
	if err != nil {
		return err
	}
	r := event.OrNop(rec)
	start.Algorithm = alg.String()
	r.Record(start)
	eng := &core.Engine{Alg: alg, Ev: ev, Rec: rec, VTime: vtime,
		Continue: func(i int) bool { return i < iters }}
	stats, err := eng.Run()
	if err != nil {
		return err
	}
	best, bestVal := alg.Best()
	r.Record(event.RunEnd{
		Mode: start.Mode, Best: best, BestValue: bestVal, TrueValue: f.Eval(best),
		Iterations: stats.Iterations, VTime: vtime(),
	})
	return nil
}
