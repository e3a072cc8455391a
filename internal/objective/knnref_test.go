package objective

import (
	"math"
	"sort"

	"paratune/internal/space"
)

// refScan is the linear k-NN scan DB.Eval ran before the shared KNN kernel,
// kept as the differential reference: every stored point in insertion order, a
// candidate list re-sorted after each admission, and only strictly nearer
// points admitted once it is full. The sort is made stable; sort.Slice is an
// insertion sort (hence stable) on the at most k+1 <= 12 elements it saw for
// the neighbour counts in use, and stability pins the tie order above that.
func refScan(pts []space.Point, vals, scale []float64, k int, x space.Point) (num, den float64, hit int) {
	type cand struct {
		d float64
		i int
	}
	if k > len(pts) {
		k = len(pts)
	}
	best := make([]cand, 0, k+1)
	for i, p := range pts {
		var d2 float64
		for j := range p {
			dd := (p[j] - x[j]) / scale[j]
			d2 += dd * dd
		}
		if len(best) < k || d2 < best[len(best)-1].d {
			best = append(best, cand{d2, i})
			sort.SliceStable(best, func(a, b int) bool { return best[a].d < best[b].d })
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	for _, c := range best {
		if c.d == 0 {
			return 0, 0, c.i
		}
		w := 1 / c.d
		num += w * vals[c.i]
		den += w
	}
	return num, den, -1
}

// refDB is the pre-kernel objective.DB: a formatted-key exact index over the
// same points, then refScan.
type refDB struct {
	pts   []space.Point
	vals  []float64
	scale []float64
	k     int
	index map[string]int
}

// storedPoints rebuilds db's stored points in insertion order.
func storedPoints(db *DB) []space.Point {
	pts := make([]space.Point, db.Len())
	for i := range pts {
		pts[i] = db.knn.appendPoint(nil, i)
	}
	return pts
}

// newRefDB snapshots db's stored points in insertion order.
func newRefDB(db *DB) *refDB {
	r := &refDB{pts: storedPoints(db), vals: db.knn.vals, k: db.knn.k, index: map[string]int{}}
	for i := 0; i < db.s.Dim(); i++ {
		rg := db.s.Param(i).Range()
		if rg == 0 {
			rg = 1
		}
		r.scale = append(r.scale, rg)
	}
	for i, p := range r.pts {
		r.index[p.Key()] = i
	}
	return r
}

// lookup is the old DB.Lookup.
func (r *refDB) lookup(p space.Point) (float64, bool) {
	i, ok := r.index[p.Key()]
	if !ok {
		return 0, false
	}
	return r.vals[i], true
}

// eval is the old DB.Eval.
func (r *refDB) eval(x space.Point) float64 {
	if v, ok := r.lookup(x); ok {
		return v
	}
	if len(r.pts) == 0 {
		return math.Inf(1)
	}
	num, den, hit := refScan(r.pts, r.vals, r.scale, r.k, x)
	if hit >= 0 {
		return r.vals[hit]
	}
	return num / den
}
