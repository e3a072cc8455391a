package experiment

import (
	"fmt"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/plot"
)

// ExtParallelSampling validates the closing observation of §5.2: "If there
// are 64 parallel processors running GS2 concurrently, we can set K = 10
// with no additional cost." With 64 processors and only 2N = 6 candidates
// per batch, idle processors can replicate candidates, so multiple samples
// arrive within a single time step. The experiment sweeps K under both
// policies — samples in subsequent steps (the Fig. 10 worst case) and
// parallel sampling — and shows the sampling overhead vanish.
func ExtParallelSampling(cfg Config) (*Figure, error) {
	db := gs2DB(cfg.Seed)
	reps := cfg.reps(300, 8)
	budget := 100
	const rho = 0.3
	const procs = 64 // the paper's cluster width
	ks := []int{1, 2, 3, 5, 8, 10}
	if cfg.Quick {
		ks = []int{1, 5, 10}
	}

	rng := dist.NewRNG(cfg.Seed + 8)
	seeds := make([]int64, reps)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}

	// One job per (K, policy, replication), in that nesting order; policy 0
	// takes samples in subsequent steps, policy 1 in parallel.
	ntts := make([]float64, len(ks)*2*reps)
	trues := make([]float64, len(ntts))
	err := forEach(cfg, len(ntts), func(i int, rec event.Recorder) error {
		cell, rep := i/reps, i%reps
		k, parallel := ks[cell/2], cell%2 == 1
		m, err := paretoNoise(rho)
		if err != nil {
			return err
		}
		sim, err := cluster.New(procs, m, seeds[rep])
		if err != nil {
			return err
		}
		est, err := minOfK(k)
		if err != nil {
			return err
		}
		alg, err := core.NewPRO(core.Options{Space: db.Space(), R: 0.2})
		if err != nil {
			return err
		}
		res, err := core.RunOnline(alg, core.OnlineConfig{
			Sim: sim, F: db, Est: est, Budget: budget, ParallelSampling: parallel, Recorder: rec,
		})
		if err != nil {
			return err
		}
		ntts[i], trues[i] = res.NTT, res.TrueValue
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows [][]float64
	seq := make([]float64, len(ks))
	par := make([]float64, len(ks))
	xs := make([]float64, len(ks))
	for ki, k := range ks {
		s, p := 2*ki*reps, (2*ki+1)*reps
		xs[ki] = float64(k)
		seq[ki], par[ki] = meanOf(ntts[s:s+reps]), meanOf(ntts[p:p+reps])
		rows = append(rows, []float64{float64(k), seq[ki], meanOf(trues[s : s+reps]), par[ki], meanOf(trues[p : p+reps])})
	}

	rendered, err := plot.Line(plot.Config{
		Title:  fmt.Sprintf("Extension — sampling policy on %d processors (rho=%.1f)", procs, rho),
		XLabel: "samples K", YLabel: "avg NTT",
	},
		plot.Series{Name: "subsequent steps (Fig. 10 worst case)", X: xs, Y: seq},
		plot.Series{Name: "parallel sampling (§5.2)", X: xs, Y: par},
	)
	if err != nil {
		return nil, err
	}

	seqSlope := (seq[len(ks)-1] - seq[0]) / float64(ks[len(ks)-1]-ks[0])
	parSlope := (par[len(ks)-1] - par[0]) / float64(ks[len(ks)-1]-ks[0])
	return &Figure{
		ID:        "ext-parallel-sampling",
		Title:     "Parallel multi-sampling (§5.2's free samples)",
		CSVHeader: []string{"samples", "ntt_subsequent", "true_subsequent", "ntt_parallel", "true_parallel"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes: notes(
			fmt.Sprintf("sequential sampling overhead: %.2f NTT per extra sample", seqSlope),
			fmt.Sprintf("parallel sampling overhead: %.2f NTT per extra sample (paper: 'no additional cost')", parSlope),
			fmt.Sprintf("overhead reduction: %.0f%% — paper: with 64 processors K=10 comes at (almost) no additional cost",
				100*(1-parSlope/seqSlope)),
		),
	}, nil
}
