package dist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/sample"
)

// orderStatByTransform is the reference OrderStat: transform every draw,
// sort, and read the rank.
func orderStatByTransform(p Pareto, f float64, rs []float64, rank int) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f + p.Quantile(r)
	}
	slices.Sort(vs)
	return vs[rank]
}

// checkOrderStat compares OrderStat with the full transform at every rank,
// and the ranks the estimators read with MinOfK, MedianOfK and the maximum.
func checkOrderStat(t testing.TB, p Pareto, f float64, rs []float64) {
	t.Helper()
	k := len(rs)
	obs := make([]float64, k)
	for i, r := range rs {
		obs[i] = f + p.Quantile(r)
	}
	same := func(what string, rank int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v f=%g draws %v rank %d: OrderStat %v, %s %v", p, f, rs, rank, got, what, want)
		}
	}
	for rank := 0; rank < k; rank++ {
		same("full transform", rank, p.OrderStat(f, rs, rank), orderStatByTransform(p, f, rs, rank))
	}
	same("MinOfK", 0, p.OrderStat(f, rs, 0), sample.MinOfK{Samples: k}.Estimate(obs))
	if k%2 == 1 {
		same("MedianOfK", k/2, p.OrderStat(f, rs, k/2), sample.MedianOfK{Samples: k}.Estimate(obs))
	}
	same("max", k-1, p.OrderStat(f, rs, k-1), slices.Max(obs))
}

// withU returns the draw r = 1-u, rounded, or false when it is not in [0, 1).
func withU(u float64) (float64, bool) {
	r := 1 - u
	return r, r >= 0 && r < 1
}

// TestParetoOrderStatMatchesFullTransform checks OrderStat against
// transforming every draw, for every rank of K = 1..16 draws, under the
// ablation's α = 0.9 (exponent -1.11) and 1.7 and an α so large the band
// covers every draw. The draw sets hold exact ties, r = 0, adjacent draws
// whose rounding inverts their order, and draws at, just inside and just
// outside a relative 2^-20 of one another, so whichever draw is the rank's
// u*, others sit on both edges of its band.
func TestParetoOrderStatMatchesFullTransform(t *testing.T) {
	ps := []Pareto{{Alpha: 0.9, Beta: 0.3}, {Alpha: 1.7, Beta: 0.3 / 1.7}, {Alpha: 0x1p21, Beta: 0.3}}
	rng := NewRNG(5)
	// Adjacent draws r < r' with 1 + Quantile(r) > 1 + Quantile(r') at
	// α = 1.7. At α = 0.9 math.Pow showed no such pair in 2·10^6 tries.
	var inverted [][2]float64
	for len(inverted) < 8 {
		r := 0.5 + rng.Float64()/2
		next := math.Nextafter(r, 1)
		if p := ps[1]; next < 1 && 1+p.Quantile(r) > 1+p.Quantile(next) {
			inverted = append(inverted, [2]float64{r, next})
		}
	}
	// Band edges around a base u0: u0(1±b) and the floats either side.
	edges := func(u0 float64) []float64 {
		var rs []float64
		for _, u := range []float64{u0 * (1 + orderStatBand), u0 * (1 - orderStatBand), u0 * (1 + 2*orderStatBand), u0 * (1 - 2*orderStatBand)} {
			for _, v := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, 2)} {
				if r, ok := withU(v); ok {
					rs = append(rs, r)
				}
			}
		}
		return rs
	}
	for _, p := range ps {
		for k := 1; k <= 16; k++ {
			for trial := 0; trial < 200; trial++ {
				pool := []float64{0, rng.Float64(), rng.Float64(), rng.Float64()}
				u0 := 1 - rng.Float64()
				if trial%4 == 0 {
					u0 = math.Ldexp(1, -1-trial%52) // a power of two: a binade edge
				}
				if r, ok := withU(u0); ok {
					pool = append(pool, r, r) // an exact tie
				}
				pool = append(pool, edges(u0)...)
				pair := inverted[trial%len(inverted)]
				pool = append(pool, pair[0], pair[1])
				rs := make([]float64, k)
				for i := range rs {
					rs[i] = pool[rng.Intn(len(pool))]
				}
				for _, f := range []float64{1, 1.1, 1e-3} {
					checkOrderStat(t, p, f, rs)
				}
			}
		}
	}
}

// FuzzParetoOrderStat checks OrderStat against the full transform for
// fuzzed draws: up to 20 of them (past the stack buffer), built from a seed
// draw and steps of whole ulps or relative 2^-20 so they cluster around
// band edges, under α from 0.5 to 2^21.
func FuzzParetoOrderStat(f *testing.F) {
	f.Add(0.5037642245925453, uint64(1), []byte{0, 1, 2, 1}, uint8(0))
	f.Add(0.0, uint64(7), []byte{3, 3, 4, 5, 6}, uint8(1))
	f.Add(0.75, uint64(3), []byte{9, 0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(2))
	alphas := []float64{0.5, 0.9, 1.7, 2, 3, 0x1p20, 0x1p21}
	f.Fuzz(func(t *testing.T, r0 float64, ulps uint64, steps []byte, alpha uint8) {
		if !(r0 >= 0 && r0 < 1) || len(steps) == 0 || len(steps) > 20 {
			return
		}
		p := Pareto{Alpha: alphas[int(alpha)%len(alphas)], Beta: 0.25}
		rs := make([]float64, len(steps))
		for i, s := range steps {
			u := 1 - r0
			switch s % 4 {
			case 1:
				u *= 1 + orderStatBand
			case 2:
				u *= 1 - orderStatBand
			case 3:
				u = math.Float64frombits(math.Float64bits(u) - ulps%64)
			}
			u = math.Float64frombits(math.Float64bits(u) + uint64(s/4))
			r, ok := withU(u)
			if !ok {
				r = r0
			}
			rs[i] = r
		}
		checkOrderStat(t, p, 1, rs)
	})
}

// OrderStat runs once per side per trial of the estimator ablation, and
// Slowest once per noise-free time per barrier step: no rank may allocate.
func TestParetoOrderStatAllocBudget(t *testing.T) {
	p := Pareto{Alpha: 1.7, Beta: 0.3}
	rs := []float64{0.3, 0.9, 0.1, 0.5, 0.7, 0.2, 0.8}
	var sink float64
	for _, rank := range []int{0, 3, 6} {
		alloccheck.Guard(t, fmt.Sprintf("Pareto.OrderStat rank %d", rank), 0, func() {
			sink = p.OrderStat(1, rs, rank)
		})
	}
	if want := orderStatByTransform(p, 1, rs, 6); sink != want {
		t.Fatalf("OrderStat rank 6 = %v, want %v", sink, want)
	}
}
