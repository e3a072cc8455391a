package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"paratune/internal/dist"
	"paratune/internal/noise"
	"paratune/internal/sample"
)

// ablationEstimatorsSerial is AblationEstimators' CSV rows as the serial
// loop computed them before the transforms moved onto the pool: every
// observation is drawn by the noise model's Perturb, in turn. It is the
// reference the pooled figure must match bit for bit.
func ablationEstimatorsSerial(cfg Config) [][]float64 {
	trials := cfg.reps(20000, 2000)
	const f1, f2 = 1.0, 1.1
	models := []func(f float64, rng *rand.Rand) float64{
		func(f float64, rng *rand.Rand) float64 {
			m, _ := noise.NewIIDPareto(1.7, 0.3)
			return m.Perturb(f, rng)
		},
		func(f float64, rng *rand.Rand) float64 {
			m, _ := noise.NewParetoFixedBeta(0.9, 0.3)
			return m.Perturb(f, rng)
		},
	}
	ests := []func(k int) sample.Estimator{
		func(k int) sample.Estimator { e, _ := sample.NewMinOfK(k); return e },
		func(k int) sample.Estimator { e, _ := sample.NewMeanOfK(k); return e },
		func(k int) sample.Estimator { e, _ := sample.NewMedianOfK(k); return e },
	}
	var rows [][]float64
	rng := dist.NewRNG(cfg.Seed + 4)
	for mi, perturb := range models {
		for ei, mk := range ests {
			for _, k := range []int{1, 2, 3, 5, 7} {
				est := mk(k)
				correct := 0
				obs1 := make([]float64, k)
				obs2 := make([]float64, k)
				for t := 0; t < trials; t++ {
					for j := 0; j < k; j++ {
						obs1[j] = perturb(f1, rng)
						obs2[j] = perturb(f2, rng)
					}
					if est.Estimate(obs1) < est.Estimate(obs2) {
						correct++
					}
				}
				rows = append(rows, []float64{float64(mi), float64(ei), float64(k), float64(correct) / float64(trials)})
			}
		}
	}
	return rows
}

// The pooled figure reproduces the serial loop's rows bit for bit, at any
// pool width. The full-scale case draws 10× the uniforms, so more of the
// order statistics' band edge cases.
func TestAblationEstimatorsMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	cfgs := []Config{{Seed: 1, Quick: true}, {Seed: 7, Quick: true}, {Seed: 42, Quick: true}}
	if !testing.Short() {
		cfgs = append(cfgs, Config{Seed: 42})
	}
	for _, cfg := range cfgs {
		want := ablationEstimatorsSerial(cfg)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			f, err := AblationEstimators(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(f.CSVRows) != len(want) {
				t.Fatalf("%+v, GOMAXPROCS %d: %d rows, serial %d", cfg, procs, len(f.CSVRows), len(want))
			}
			for i, row := range f.CSVRows {
				for j, v := range row {
					if math.Float64bits(v) != math.Float64bits(want[i][j]) {
						t.Fatalf("%+v, GOMAXPROCS %d: row %d = %v, serial %v", cfg, procs, i, row, want[i])
					}
				}
			}
		}
	}
}

// The §5 claims the figure reproduces: min-of-K orders two configurations
// 10% apart better as K grows, under both noise models, and better than
// the mean at K = 7; under infinite-mean Pareto(0.9) noise, averaging more
// samples orders them worse.
func TestAblationEstimatorsClaims(t *testing.T) {
	const (
		minEst, meanEst = 0, 1
		k1, k7          = 1, 7
	)
	for _, seed := range []int64{1, 7, 42} {
		f, err := AblationEstimators(Config{Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		acc := map[[3]int]float64{} // (model, estimator, K) -> accuracy
		for _, row := range f.CSVRows {
			acc[[3]int{int(row[0]), int(row[1]), int(row[2])}] = row[3]
		}
		for model, name := range []string{"pareto a=1.7", "pareto a=0.9"} {
			at := func(est, k int) float64 { return acc[[3]int{model, est, k}] }
			where := fmt.Sprintf("seed %d, %s", seed, name)
			if at(minEst, k7) <= at(minEst, k1) {
				t.Errorf("%s: min accuracy %.4f (K=1) -> %.4f (K=7), want a rise", where, at(minEst, k1), at(minEst, k7))
			}
			if at(minEst, k7) <= at(meanEst, k7) {
				t.Errorf("%s: at K=7 min %.4f, mean %.4f, want min ahead", where, at(minEst, k7), at(meanEst, k7))
			}
		}
		if m1, m7 := acc[[3]int{1, meanEst, k1}], acc[[3]int{1, meanEst, k7}]; m7 >= m1 {
			t.Errorf("seed %d, pareto a=0.9: mean accuracy %.4f (K=1) -> %.4f (K=7), want a fall", seed, m1, m7)
		}
	}
}

// BenchmarkAblationEstimators times the Quick figure on the pool against
// the serial loop it replaced.
func BenchmarkAblationEstimators(b *testing.B) {
	cfg := Config{Seed: 42, Quick: true}
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AblationEstimators(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ablationEstimatorsSerial(cfg)
		}
	})
}
