package experiment

import (
	"fmt"

	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/noise"
	"paratune/internal/par"
	"paratune/internal/plot"
	"paratune/internal/sample"
)

// AblationEstimators tests §5's operational claim directly: an estimator is
// good for tuning iff it orders two configurations correctly. For a pair of
// configurations 10% apart, it measures P[estimate(f1) < estimate(f2)] as a
// function of K for min-of-K, mean-of-K and median-of-K, under the §6
// Pareto(1.7) noise and under an infinite-mean Pareto(0.9) stress model.
// The paper predicts the min's accuracy climbs with K even when the mean's
// does not (Eqs. 11–19).
//
// Each (model, estimator, K) cell draws its uniforms serially from the one
// seeded stream, per trial and per sample f1's then f2's, and then turns
// them into estimates and counts on par.For's pool, one chunk of trials per
// job. Pareto.Quantile of a uniform is Pareto.Sample's draw bit for bit, so
// the counts are those of drawing each observation in turn. Min-of-K and
// odd-K median-of-K read one order statistic per side, so
// dist.Pareto.OrderStat transforms only the draws that can be it; mean-of-K
// and the K = 2 median transform every draw.
func AblationEstimators(cfg Config) (*Figure, error) {
	trials := cfg.reps(20000, 2000)
	const f1, f2 = 1.0, 1.1 // 10% performance gap

	iid, err := noise.NewIIDPareto(1.7, 0.3)
	if err != nil {
		return nil, err
	}
	fixed, err := noise.NewParetoFixedBeta(0.9, 0.3)
	if err != nil {
		return nil, err
	}
	models := []struct {
		name   string
		p1, p2 dist.Pareto // the noise added to f1 and to f2
	}{
		{"pareto a=1.7 rho=0.3",
			dist.Pareto{Alpha: iid.Alpha, Beta: iid.Beta(f1)}, dist.Pareto{Alpha: iid.Alpha, Beta: iid.Beta(f2)}},
		{"pareto a=0.9 (inf mean)",
			dist.Pareto{Alpha: fixed.Alpha, Beta: fixed.BetaFrac * f1}, dist.Pareto{Alpha: fixed.Alpha, Beta: fixed.BetaFrac * f2}},
	}
	type estMaker struct {
		name string
		mk   func(k int) sample.Estimator
		// rank is the order statistic of K observations the estimate is,
		// or -1 when it reads them all.
		rank func(k int) int
	}
	ests := []estMaker{
		{"min", func(k int) sample.Estimator { e, _ := sample.NewMinOfK(k); return e },
			func(int) int { return 0 }},
		{"mean", func(k int) sample.Estimator { e, _ := sample.NewMeanOfK(k); return e },
			func(int) int { return -1 }},
		{"median", func(k int) sample.Estimator { e, _ := sample.NewMedianOfK(k); return e },
			func(k int) int {
				if k%2 == 0 {
					return -1
				}
				return k / 2
			}},
	}
	ks := []int{1, 2, 3, 5, 7}

	const chunk = 256 // trials per pool job
	chunks := (trials + chunk - 1) / chunk
	counts := make([]int, chunks)
	uniforms := make([]float64, trials*2*ks[len(ks)-1])
	var rows [][]float64
	acc := make(map[string]map[string][]float64) // model -> est -> per-K accuracy
	rng := dist.NewRNG(cfg.Seed + 4)
	for mi, m := range models {
		acc[m.name] = make(map[string][]float64)
		for ei, em := range ests {
			perK := make([]float64, len(ks))
			for ki, k := range ks {
				est, rank := em.mk(k), em.rank(k)
				// Drawn f1's then f2's per sample; kept as f1's K then f2's K.
				u := uniforms[:trials*2*k]
				for t := 0; t < trials; t++ {
					draws := u[t*2*k : (t+1)*2*k]
					for j := 0; j < k; j++ {
						draws[j] = rng.Float64()
						draws[k+j] = rng.Float64()
					}
				}
				par.For(chunks, func(c int) {
					var obs1, obs2 []float64
					if rank < 0 {
						obs1, obs2 = make([]float64, k), make([]float64, k)
					}
					n := 0
					for t := c * chunk; t < min((c+1)*chunk, trials); t++ {
						d1, d2 := u[t*2*k:t*2*k+k], u[t*2*k+k:(t+1)*2*k]
						var e1, e2 float64
						if rank >= 0 {
							e1, e2 = m.p1.OrderStat(f1, d1, rank), m.p2.OrderStat(f2, d2, rank)
						} else {
							for j := range obs1 {
								obs1[j] = f1 + m.p1.Quantile(d1[j])
								obs2[j] = f2 + m.p2.Quantile(d2[j])
							}
							e1, e2 = est.Estimate(obs1), est.Estimate(obs2)
						}
						if e1 < e2 {
							n++
						}
					}
					counts[c] = n
				})
				correct := 0
				for _, n := range counts {
					correct += n
				}
				perK[ki] = float64(correct) / float64(trials)
				rows = append(rows, []float64{float64(mi), float64(ei), float64(k), perK[ki]})
			}
			acc[m.name][em.name] = perK
		}
	}

	series := make([]plot.Series, 0, len(models)*len(ests))
	xs := make([]float64, len(ks))
	for i, k := range ks {
		xs[i] = float64(k)
	}
	for _, m := range models {
		for _, em := range ests {
			series = append(series, plot.Series{
				Name: fmt.Sprintf("%s/%s", em.name, m.name), X: xs, Y: acc[m.name][em.name],
			})
		}
	}
	rendered, err := plot.Line(plot.Config{
		Title:  "Ablation — P[correct ordering of two configs 10% apart] vs K",
		XLabel: "samples K", YLabel: "ordering accuracy",
	}, series...)
	if err != nil {
		return nil, err
	}

	var lines []string
	for _, m := range models {
		minAcc := acc[m.name]["min"]
		meanAcc := acc[m.name]["mean"]
		lines = append(lines, fmt.Sprintf(
			"%s: min accuracy %.3f (K=1) -> %.3f (K=%d); mean %.3f -> %.3f (min gains more: %v)",
			m.name, minAcc[0], minAcc[len(ks)-1], ks[len(ks)-1],
			meanAcc[0], meanAcc[len(ks)-1],
			minAcc[len(ks)-1]-minAcc[0] >= meanAcc[len(ks)-1]-meanAcc[0]))
	}
	return &Figure{
		ID:        "ablation-estimators",
		Title:     "Estimator ablation (§5 min vs mean ordering accuracy)",
		CSVHeader: []string{"model_idx", "estimator_idx", "k", "ordering_accuracy"},
		CSVRows:   rows,
		Rendered:  rendered,
		Notes:     notes(lines...),
	}, nil
}

// proVariantAblation runs PRO against one modified variant over shared
// replications and reports mean NTT and final true value for both.
func proVariantAblation(cfg Config, id, title string, mod core.Options, modName string) (*Figure, error) {
	db := gs2DB(cfg.Seed)
	reps := cfg.reps(120, 6)
	budget := 100
	base := core.Options{Space: db.Space(), R: 0.2}
	mod.Space = db.Space()
	if mod.R == 0 {
		mod.R = 0.2
	}

	rng := dist.NewRNG(cfg.Seed + 5)
	seeds := make([]int64, reps)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}

	// One job per (variant, replication): the paper's PRO first, then mod.
	variants := []core.Options{base, mod}
	ntts := make([]float64, len(variants)*reps)
	trues := make([]float64, len(ntts))
	err := forEach(cfg, len(ntts), func(i int, rec event.Recorder) error {
		alg, err := core.NewPRO(variants[i/reps])
		if err != nil {
			return err
		}
		res, err := onlineRun(alg, db, 0.2, 2, budget, simProcs, seeds[i%reps], rec)
		if err != nil {
			return err
		}
		ntts[i], trues[i] = res.NTT, res.TrueValue
		return nil
	})
	if err != nil {
		return nil, err
	}
	baseNTT, baseTrue := meanOf(ntts[:reps]), meanOf(trues[:reps])
	modNTT, modTrue := meanOf(ntts[reps:]), meanOf(trues[reps:])
	rendered, err := plot.Bars(plot.Config{Title: title + " — mean NTT (lower is better)"},
		[]string{"pro (paper)", modName}, []float64{baseNTT, modNTT})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:        id,
		Title:     title,
		CSVHeader: []string{"variant", "mean_ntt", "mean_final_true_value"},
		CSVRows:   [][]float64{{0, baseNTT, baseTrue}, {1, modNTT, modTrue}},
		Rendered:  rendered,
		Notes: notes(
			fmt.Sprintf("pro: NTT %.2f, final true value %.3f", baseNTT, baseTrue),
			fmt.Sprintf("%s: NTT %.2f, final true value %.3f", modName, modNTT, modTrue),
			fmt.Sprintf("paper variant better on NTT: %v", baseNTT <= modNTT),
		),
	}, nil
}

// AblationExpansionCheck compares the §3.2 expansion-check-first policy with
// eager full expansion.
func AblationExpansionCheck(cfg Config) (*Figure, error) {
	return proVariantAblation(cfg, "ablation-expansion",
		"Ablation — expansion check first vs eager expansion",
		core.Options{EagerExpansion: true}, "eager expansion")
}

// AblationAcceptRule compares PRO's better-than-best acceptance with the
// Nelder–Mead better-than-worst rule.
func AblationAcceptRule(cfg Config) (*Figure, error) {
	return proVariantAblation(cfg, "ablation-accept",
		"Ablation — accept rule: better-than-best vs better-than-worst",
		core.Options{NelderAcceptRule: true}, "nelder accept rule")
}

// AblationProjection compares §3.2.1 round-toward-centre projection with
// plain nearest rounding.
func AblationProjection(cfg Config) (*Figure, error) {
	return proVariantAblation(cfg, "ablation-projection",
		"Ablation — projection: toward-centre vs nearest rounding",
		core.Options{ProjectNearest: true}, "nearest rounding")
}

// AblationRemeasure compares Algorithm 2 as written (the best vertex keeps
// its stored value) with a live-system variant that re-measures the
// incumbent alongside every reflection batch, making single-sample
// comparisons two-sided noisy.
func AblationRemeasure(cfg Config) (*Figure, error) {
	return proVariantAblation(cfg, "ablation-remeasure",
		"Ablation — stored incumbent value vs re-measured incumbent",
		core.Options{RemeasureBest: true}, "remeasure best")
}
