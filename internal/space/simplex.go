package space

import (
	"fmt"
	"math"
)

// Simplex is a set of evaluated vertices maintained by the rank-ordering
// algorithms. Vertices[0] is the best (lowest value) vertex after Sort.
// The vertex count n may exceed the space dimension N; the paper's preferred
// initial simplex has 2N vertices (§3.2.3).
type Simplex struct {
	Vertices []Point
	Values   []float64
}

// NewSimplex builds a simplex from vertices with values initialised to +Inf
// (unevaluated).
func NewSimplex(vertices []Point) *Simplex {
	vals := make([]float64, len(vertices))
	for i := range vals {
		vals[i] = math.Inf(1)
	}
	return &Simplex{Vertices: vertices, Values: vals}
}

// Len returns the number of vertices.
func (s *Simplex) Len() int { return len(s.Vertices) }

// Clone deep-copies the simplex.
func (s *Simplex) Clone() *Simplex {
	vs := make([]Point, len(s.Vertices))
	for i, v := range s.Vertices {
		vs[i] = v.Clone()
	}
	vals := make([]float64, len(s.Values))
	copy(vals, s.Values)
	return &Simplex{Vertices: vs, Values: vals}
}

// Sort reorders vertices so that Values[0] <= ... <= Values[n-1] (Alg. 2 l.4).
// The sort is stable so ties preserve insertion order, which keeps runs
// reproducible. It is an in-place insertion sort: simplexes are small, and a
// stable order is unique, so the result matches sort.SliceStable exactly
// whenever no value is NaN. A NaN never moves and nothing moves past it, so
// each run between NaNs is sorted on its own.
func (s *Simplex) Sort() {
	vs, vals := s.Vertices, s.Values
	for i := 1; i < len(vals); i++ {
		v, x := vals[i], vs[i]
		j := i
		for ; j > 0 && v < vals[j-1]; j-- {
			vals[j], vs[j] = vals[j-1], vs[j-1]
		}
		vals[j], vs[j] = v, x
	}
}

// Best returns the best vertex and its value. The simplex must be sorted.
func (s *Simplex) Best() (Point, float64) { return s.Vertices[0], s.Values[0] }

// Worst returns the worst vertex and its value. The simplex must be sorted.
func (s *Simplex) Worst() (Point, float64) {
	n := len(s.Vertices) - 1
	return s.Vertices[n], s.Values[n]
}

// Spread returns the maximum coordinate-wise distance between any vertex and
// the best vertex; the stopping criterion of §3.2.2 triggers when Spread is
// zero (discrete) or tiny (continuous).
func (s *Simplex) Spread() float64 {
	var m float64
	for _, v := range s.Vertices[1:] {
		for i := range v {
			if d := math.Abs(v[i] - s.Vertices[0][i]); d > m {
				m = d
			}
		}
	}
	return m
}

// Collapsed reports whether all vertices coincide within tol of the best.
func (s *Simplex) Collapsed(tol float64) bool { return s.Spread() <= tol }

// Centroid returns the mean of the first k vertices (all if k <= 0).
func (s *Simplex) Centroid(k int) Point {
	if k <= 0 || k > len(s.Vertices) {
		k = len(s.Vertices)
	}
	c := make(Point, len(s.Vertices[0]))
	for _, v := range s.Vertices[:k] {
		for i := range c {
			c[i] += v[i]
		}
	}
	for i := range c {
		c[i] /= float64(k)
	}
	return c
}

// Rank returns the dimension of the affine hull of the vertices, computed by
// Gaussian elimination with partial pivoting on the edge matrix
// (v_j - v_0). A simplex spans the N-dimensional space iff Rank() == N.
func (s *Simplex) Rank() int {
	if len(s.Vertices) < 2 {
		return 0
	}
	n := len(s.Vertices[0])
	rows := len(s.Vertices) - 1
	m := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		m[i] = s.Vertices[i+1].Sub(s.Vertices[0])
	}
	const eps = 1e-12
	rank := 0
	for col := 0; col < n && rank < rows; col++ {
		// Find the pivot row.
		piv, pval := -1, eps
		for r := rank; r < rows; r++ {
			if a := math.Abs(m[r][col]); a > pval {
				piv, pval = r, a
			}
		}
		if piv < 0 {
			continue
		}
		m[rank], m[piv] = m[piv], m[rank]
		// Eliminate below.
		for r := rank + 1; r < rows; r++ {
			f := m[r][col] / m[rank][col]
			for c := col; c < n; c++ {
				m[r][c] -= f * m[rank][c]
			}
		}
		rank++
	}
	return rank
}

// Degenerate reports whether the simplex fails to span the full space.
func (s *Simplex) Degenerate() bool {
	if len(s.Vertices) == 0 {
		return true
	}
	return s.Rank() < len(s.Vertices[0])
}

// InitialScale returns the per-parameter offsets b_i = r*(u_i - l_i)/2 used
// when constructing initial simplexes; §6.1 defines r as the "initial simplex
// relative size" and §3.2.3 defaults to b_i = 0.1*(u_i - l_i), i.e. r = 0.2.
func InitialScale(s *Space, r float64) []float64 {
	b := make([]float64, s.Dim())
	for i := 0; i < s.Dim(); i++ {
		b[i] = r * s.Param(i).Range() / 2
	}
	return b
}

// OnSlab sets every entry of pts to a fresh zero point of dimension dim, all
// carved from one new allocation, and returns pts. Each point's capacity is
// its length, so an append to one never writes into the next. The points
// alias nothing that existed before the call; only pts itself is reused.
func OnSlab(pts []Point, dim int) []Point {
	slab := make([]float64, len(pts)*dim)
	for j := range pts {
		pts[j] = slab[j*dim : (j+1)*dim : (j+1)*dim]
	}
	return pts
}

// offsetVertex writes Π(c + delta·e_i) into x, projecting in place, and if
// the centre-directed rounding collapsed the offset back onto c (coarse
// discrete parameters), snaps coordinate i to the adjacent admissible value
// in delta's direction so the initial simplex stays non-degenerate. x must
// not alias c.
func offsetVertex(s *Space, x, c Point, i int, delta float64) {
	copy(x, c)
	x[i] += delta
	s.ProjectTo(x, x, c)
	if x[i] != c[i] { //paralint:allow floatcompare collapse probe: Project returns admissible values verbatim
		return
	}
	lo, hasLo, hi, hasHi := s.Param(i).Neighbors(c[i])
	switch {
	case delta > 0 && hasHi:
		x[i] = hi
	case delta < 0 && hasLo:
		x[i] = lo
	case hasHi:
		x[i] = hi
	case hasLo:
		x[i] = lo
	}
}

// Initial2N constructs the 2N-vertex initial simplex of §3.2.3:
// {Π(c ± b_i·e_i), i = 1..N}, centred on c (the region centre when c is nil).
// Offsets that projection would collapse onto the centre are snapped to the
// adjacent admissible value so the simplex spans the space. The vertices
// share one slab (OnSlab).
func Initial2N(s *Space, c Point, r float64) *Simplex {
	if c == nil {
		c = s.Center()
	}
	b := InitialScale(s, r)
	n := s.Dim()
	vs := OnSlab(make([]Point, 2*n), n)
	for i := 0; i < n; i++ {
		offsetVertex(s, vs[2*i], c, i, b[i])
		offsetVertex(s, vs[2*i+1], c, i, -b[i])
	}
	return NewSimplex(vs)
}

// InitialMinimal constructs the minimal N+1-vertex simplex of §6.1: the
// centre c plus {Π(c + b_i·e_i), i = 1..N}, on one slab.
func InitialMinimal(s *Space, c Point, r float64) *Simplex {
	if c == nil {
		c = s.Center()
	}
	b := InitialScale(s, r)
	n := s.Dim()
	vs := OnSlab(make([]Point, n+1), n)
	s.ProjectTo(vs[0], c, c)
	for i := 0; i < n; i++ {
		offsetVertex(s, vs[i+1], c, i, b[i])
	}
	return NewSimplex(vs)
}

// ConvergenceProbe returns the 2N probe points of §3.2.2 around best:
// {best + u_i·e_i, best - l_i·e_i} where the offsets reach the adjacent
// admissible value of each parameter (zero offsets at boundaries are
// omitted). If none of these outperforms best, best is a local minimum.
// The probes share one slab (OnSlab) sized for all 2N.
func ConvergenceProbe(s *Space, best Point) []Point {
	n := s.Dim()
	probes := OnSlab(make([]Point, 2*n), n)
	m := 0
	for i := 0; i < n; i++ {
		lo, hasLo, hi, hasHi := s.Param(i).Neighbors(best[i])
		if hasLo {
			copy(probes[m], best)
			probes[m][i] = lo
			m++
		}
		if hasHi {
			copy(probes[m], best)
			probes[m][i] = hi
			m++
		}
	}
	return probes[:m]
}

// String summarises the simplex.
func (s *Simplex) String() string {
	return fmt.Sprintf("simplex{n=%d, best=%v, spread=%g}", len(s.Vertices), s.Vertices[0], s.Spread())
}
