package experiment

import (
	"fmt"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/noise"
	"paratune/internal/plot"
)

// ExtSharedNoise makes the Fig. 10 robustness finding reproducible: when the
// interference is machine-wide (one multiplier per time step, shared by all
// processors — the correlation the paper's own Fig. 3 exhibits), PRO's
// within-batch comparisons are exact, the Eq. 17 coupling keeps cross-batch
// comparisons order-consistent, and (1-ρ) normalisation cancels the mean
// inflation — so the tuned trajectory, the final configuration, and the NTT
// are all nearly independent of both ρ and the sample count K. Multi-sample
// estimation buys nothing under shared noise; it only matters when noise is
// independent per processor.
func ExtSharedNoise(cfg Config) (*Figure, error) {
	db := gs2DB(cfg.Seed)
	reps := cfg.reps(400, 8)
	budget := 100
	rhos := []float64{0, 0.2, 0.4}
	ks := []int{1, 3, 5}
	if cfg.Quick {
		rhos = []float64{0, 0.4}
		ks = []int{1, 5}
	}

	rng := dist.NewRNG(cfg.Seed + 9)
	seeds := make([]int64, reps)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}

	// One job per (K, rho, model, replication), in that nesting order; model
	// 0 is shared noise, model 1 independent.
	ntts := make([]float64, len(ks)*len(rhos)*2*reps)
	trues := make([]float64, len(ntts))
	err := forEach(cfg, len(ntts), func(i int, rec event.Recorder) error {
		cell, rep := i/reps, i%reps
		k, rho, shared := ks[cell/(2*len(rhos))], rhos[cell/2%len(rhos)], cell%2 == 0
		model, err := paretoNoise(rho)
		if shared && rho > 0 {
			model, err = noise.NewSharedIIDPareto(1.7, rho)
		}
		if err != nil {
			return err
		}
		sim, err := cluster.New(simProcs, model, seeds[rep])
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
		res, err := core.RunOnline(alg, core.OnlineConfig{Sim: sim, F: db, Est: est, Budget: budget, Recorder: rec})
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
	var lines []string
	sharedSeries := map[int][]float64{}
	indepSeries := map[int][]float64{}
	for ki, k := range ks {
		for ri, rho := range rhos {
			s := (ki*len(rhos) + ri) * 2 * reps
			ind := s + reps
			sNTT, iNTT := meanOf(ntts[s:s+reps]), meanOf(ntts[ind:ind+reps])
			rows = append(rows, []float64{rho, float64(k), sNTT, meanOf(trues[s : s+reps]), iNTT, meanOf(trues[ind : ind+reps])})
			sharedSeries[k] = append(sharedSeries[k], sNTT)
			indepSeries[k] = append(indepSeries[k], iNTT)
		}
	}

	series := make([]plot.Series, 0, 2*len(ks))
	for _, k := range ks {
		series = append(series,
			plot.Series{Name: fmt.Sprintf("shared K=%d", k), X: rhos, Y: sharedSeries[k]},
			plot.Series{Name: fmt.Sprintf("indep K=%d", k), X: rhos, Y: indepSeries[k]},
		)
	}
	rendered, err := plot.Line(plot.Config{
		Title:  "Extension — shared vs independent noise (avg NTT by rho)",
		XLabel: "rho", YLabel: "avg NTT",
	}, series...)
	if err != nil {
		return nil, err
	}

	// Shared noise: NTT at the highest rho should be within a few percent of
	// the noiseless NTT (normalisation cancels it); independent noise rises
	// steeply.
	base := sharedSeries[ks[0]][0]
	sharedRise := sharedSeries[ks[0]][len(rhos)-1]/base - 1
	indepRise := indepSeries[ks[0]][len(rhos)-1]/base - 1
	lines = append(lines,
		fmt.Sprintf("K=%d NTT rise from rho=0 to rho=%.1f: shared %+.1f%%, independent %+.1f%%",
			ks[0], rhos[len(rhos)-1], 100*sharedRise, 100*indepRise),
		"shared machine-wide noise leaves the tuned trajectory nearly unchanged: within-step comparisons are exact",
		"and (1-rho) normalisation cancels the common inflation — multi-sampling only matters for independent noise")
	return &Figure{
		ID:        "ext-shared-noise",
		Title:     "Machine-wide vs independent variability (robustness finding)",
		CSVHeader: []string{"rho", "samples", "ntt_shared", "true_shared", "ntt_independent", "true_independent"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes:     notes(lines...),
	}, nil
}
