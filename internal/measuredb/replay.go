package measuredb

import (
	"errors"
	"fmt"
	"math"

	"paratune/internal/objective"
	"paratune/internal/space"
	"paratune/internal/stats"
)

// Replay is a store-backed objective function mirroring the paper's §6
// replay query: an exact match returns the configuration's stored minimum;
// anything else is objective.KNN's weighted average of its k nearest
// measured neighbours — the same kernel as objective.DB over the GS2 grid,
// but sourced from live tuning measurements instead of a pre-built CSV.
//
// Replay captures the store's contents at construction — it is a consistent,
// immutable surface, safe for concurrent Eval, unaffected by concurrent
// writes to the store it came from.
type Replay struct {
	sp    *space.Space
	knn   *objective.KNN
	exact map[string]float64 // per-configuration minimum over all observations
}

// NewReplay builds a replay objective from the store's current contents.
// neighbors <= 0 defaults to 4 (the objective.DB default). Fails on an empty
// store or a store bound to a different space.
func NewReplay(s *Store, sp *space.Space, neighbors int) (*Replay, error) {
	if sig := s.SpaceSig(); sig != "" && sig != sp.String() {
		return nil, fmt.Errorf("measuredb: replay space %q does not match store space %q", sp.String(), sig)
	}
	r := &Replay{sp: sp, knn: objective.NewKNN(sp, neighbors), exact: make(map[string]float64)}
	s.ForEachRaw(func(p space.Point, obs []float64) {
		if len(p) != sp.Dim() {
			return
		}
		v := stats.Min(obs)
		r.exact[string(AppendKey(nil, p))] = v
		r.knn.Add(p, v)
	})
	if r.knn.Len() == 0 {
		return nil, errors.New("measuredb: replay over an empty store")
	}
	return r, nil
}

// Len returns the number of measured configurations backing the surface.
func (r *Replay) Len() int { return r.knn.Len() }

// Eval implements objective.Function: exact stored minimum, else the
// weighted k-nearest-neighbour interpolation (+Inf when every neighbour is
// infinitely far).
func (r *Replay) Eval(x space.Point) float64 {
	if v, ok := r.exact[string(AppendKey(nil, x))]; ok {
		return v
	}
	v, den := r.knn.Interpolate(x)
	if den == 0 { //paralint:allow floatcompare all-infinite-distance guard
		return math.Inf(1)
	}
	return v
}

// Space implements objective.Function.
func (r *Replay) Space() *space.Space { return r.sp }

// String implements objective.Function.
func (r *Replay) String() string {
	return fmt.Sprintf("measuredb-replay(%d points, k=%d)", r.knn.Len(), r.knn.K())
}
