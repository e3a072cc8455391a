package experiment

import (
	"fmt"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/plot"
	"paratune/internal/sample"
)

// ExtAdaptiveK evaluates the §5.2 extension the paper names as future work:
// an on-line controller that re-solves Eq. 22 from the observed variability
// and adjusts the per-configuration sample count while tuning runs. It
// compares fixed K ∈ {1, 3, 5} against the controller across idle-throughput
// levels and reports average NTT, final configuration quality, and the
// controller's chosen K.
func ExtAdaptiveK(cfg Config) (*Figure, error) {
	db := gs2DB(cfg.Seed)
	reps := cfg.reps(200, 6)
	budget := 100
	rhos := []float64{0.05, 0.2, 0.4}
	if cfg.Quick {
		rhos = []float64{0.2}
	}

	rng := dist.NewRNG(cfg.Seed + 6)
	seeds := make([]int64, reps)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}

	type variant struct {
		name string
		mk   func() (sample.Estimator, *sample.KTuner, error)
	}
	fixed := func(k int) variant {
		return variant{fmt.Sprintf("min-of-%d", k), func() (sample.Estimator, *sample.KTuner, error) {
			e, err := minOfK(k)
			return e, nil, err
		}}
	}
	variants := []variant{
		fixed(1), fixed(3), fixed(5),
		{"controlled", func() (sample.Estimator, *sample.KTuner, error) {
			tn, err := sample.NewKTuner(1.7, 0.05, 0.05, 1, 8)
			if err != nil {
				return nil, nil, err
			}
			e, err := sample.NewControlled(tn)
			return e, tn, err
		}},
	}

	// One job per (rho, variant, replication), in that nesting order.
	ntts := make([]float64, len(rhos)*len(variants)*reps)
	trues := make([]float64, len(ntts))
	finalK := make([]float64, len(ntts))
	err := forEach(cfg, len(ntts), func(i int, rec event.Recorder) error {
		cell, rep := i/reps, i%reps
		rho, v := rhos[cell/len(variants)], variants[cell%len(variants)]
		m, err := paretoNoise(rho)
		if err != nil {
			return err
		}
		sim, err := cluster.New(simProcs, m, seeds[rep])
		if err != nil {
			return err
		}
		est, tuner, err := v.mk()
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
		if tuner != nil {
			finalK[i] = float64(tuner.K())
		} else {
			finalK[i] = float64(est.K())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var rows [][]float64
	var lines []string
	nttByVariant := make(map[string][]float64)
	for ri, rho := range rhos {
		for vi, v := range variants {
			cell := (ri*len(variants) + vi) * reps
			ntt, tru, k := meanOf(ntts[cell:cell+reps]), meanOf(trues[cell:cell+reps]), meanOf(finalK[cell:cell+reps])
			rows = append(rows, []float64{rho, float64(vi), ntt, tru, k})
			nttByVariant[v.name] = append(nttByVariant[v.name], ntt)
			if v.name == "controlled" {
				lines = append(lines, fmt.Sprintf("rho=%.2f: controller settled at K ≈ %.1f (NTT %.2f, final f %.3f)",
					rho, k, ntt, tru))
			}
		}
	}

	series := make([]plot.Series, 0, len(variants))
	for _, v := range variants {
		series = append(series, plot.Series{Name: v.name, X: rhos, Y: nttByVariant[v.name]})
	}
	rendered, err := plot.Line(plot.Config{
		Title:  "Extension — adaptive K controller vs fixed K (avg NTT by rho)",
		XLabel: "rho", YLabel: "avg NTT",
	}, series...)
	if err != nil {
		return nil, err
	}

	// The controller should track within a few NTT of the best fixed K at
	// every rho while choosing K autonomously.
	for ri, rho := range rhos {
		bestFixed := nttByVariant["min-of-1"][ri]
		for _, name := range []string{"min-of-3", "min-of-5"} {
			if nttByVariant[name][ri] < bestFixed {
				bestFixed = nttByVariant[name][ri]
			}
		}
		ctl := nttByVariant["controlled"][ri]
		lines = append(lines, fmt.Sprintf("rho=%.2f: controlled NTT %.2f vs best fixed %.2f (overhead %.1f%%)",
			rho, ctl, bestFixed, 100*(ctl-bestFixed)/bestFixed))
	}
	return &Figure{
		ID:        "ext-adaptive-k",
		Title:     "Adaptive sample-count controller (§5.2 future work, implemented)",
		CSVHeader: []string{"rho", "variant_idx", "mean_ntt", "mean_final_true_value", "mean_k"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes:     notes(lines...),
	}, nil
}
