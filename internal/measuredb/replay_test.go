package measuredb_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"paratune/internal/cluster"
	"paratune/internal/core"
	"paratune/internal/measuredb"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
	"paratune/internal/stats"
)

// gs2Store fills a store the way a warm-started deployment does: PRO tuning
// runs from seeded random starts over the GS2 surrogate under Pareto noise.
func gs2Store(t *testing.T) *measuredb.Store {
	t.Helper()
	sp := objective.GS2Space()
	f := objective.GenerateGS2(objective.GS2Config{Seed: 42, Coverage: 0.85})
	store := measuredb.NewMemory(measuredb.Options{Seed: 5})
	for seed := int64(1); seed <= 12; seed++ {
		model, err := noise.NewIIDPareto(1.7, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cluster.New(8, model, seed)
		if err != nil {
			t.Fatal(err)
		}
		start := sp.Random(rand.New(rand.NewSource(seed)))
		alg, err := core.NewPRO(core.Options{Space: sp, Center: start})
		if err != nil {
			t.Fatal(err)
		}
		est, err := sample.NewMinOfK(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.RunOnline(alg, core.OnlineConfig{Sim: sim, F: f, Est: est, Budget: 200, DB: store}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// refReplay is Replay as it was before the shared objective.KNN kernel: a
// bit-keyed exact index over the store's per-configuration minima, then a
// linear scan over every point in store order that re-sorts its candidate
// list after each admission and, once full, admits only strictly nearer
// points; +Inf when every neighbour is infinitely far. (objective's tests
// keep the same scan as DB's reference.)
type refReplay struct {
	pts   []space.Point
	vals  []float64
	exact map[string]float64
	scale []float64
	k     int
}

func newRefReplay(s *measuredb.Store, sp *space.Space, k int) *refReplay {
	r := &refReplay{exact: map[string]float64{}, k: k}
	for i := 0; i < sp.Dim(); i++ {
		rg := sp.Param(i).Range()
		if rg == 0 {
			rg = 1
		}
		r.scale = append(r.scale, rg)
	}
	s.ForEachRaw(func(p space.Point, obs []float64) {
		v := stats.Min(obs)
		r.exact[measuredb.KeyString(p)] = v
		r.pts = append(r.pts, p)
		r.vals = append(r.vals, v)
	})
	return r
}

func (r *refReplay) Eval(x space.Point) float64 {
	if v, ok := r.exact[measuredb.KeyString(x)]; ok {
		return v
	}
	type cand struct {
		d float64
		i int
	}
	k := min(r.k, len(r.pts))
	best := make([]cand, 0, k+1)
	for i, p := range r.pts {
		var d2 float64
		for j := range p {
			dd := (p[j] - x[j]) / r.scale[j]
			d2 += dd * dd
		}
		if len(best) < k || d2 < best[len(best)-1].d {
			best = append(best, cand{d2, i})
			sort.Slice(best, func(a, b int) bool { return best[a].d < best[b].d })
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	var num, den float64
	for _, c := range best {
		if c.d == 0 {
			return r.vals[c.i]
		}
		w := 1 / c.d
		num += w * r.vals[c.i]
		den += w
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// Replay shares DB's kernel; over a store filled by GS2 tuning runs it
// returns the old scan's bits on stored points, on the rest of the grid and
// off it — through the grid walk while every stored point is a grid point,
// and through the scan once an off-grid observation drops the index.
func TestReplayMatchesReferenceScan(t *testing.T) {
	sp := objective.GS2Space()
	store := gs2Store(t)
	for _, name := range []string{"grid", "scan"} {
		if name == "scan" {
			store.Observe(space.Point{36.5, 18, 8}, 1)
		}
		r, err := measuredb.NewReplay(store, sp, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefReplay(store, sp, 4)
		t.Logf("%s: %v", name, r)
		if r.Len() != len(ref.pts) || r.Len() < 50 {
			t.Fatalf("%s: replay over %d points, reference %d", name, r.Len(), len(ref.pts))
		}
		check := func(p space.Point) {
			t.Helper()
			if got, want := r.Eval(p), ref.Eval(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Eval(%v) = %v, reference %v", name, p, got, want)
			}
		}
		for _, p := range ref.pts {
			check(p)
		}
		_ = sp.Enumerate(check)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 3000; i++ {
			check(space.Point{rng.Float64()*80 - 4, rng.Float64()*40 - 2, rng.Float64() * 70})
		}
		nan, inf := math.NaN(), math.Inf(1)
		for _, p := range []space.Point{{nan, 18, 8}, {inf, 18, 8}, {36, -inf, 8}, {math.Copysign(0, -1), 18, 8}} {
			check(p)
		}
	}
}
