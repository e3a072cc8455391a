package space

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"paratune/internal/alloccheck"
)

func TestSimplexSort(t *testing.T) {
	s := NewSimplex([]Point{{1, 0}, {2, 0}, {3, 0}})
	s.Values = []float64{5, 1, 3}
	s.Sort()
	want := []float64{1, 3, 5}
	for i, v := range want {
		if s.Values[i] != v {
			t.Fatalf("sorted values = %v, want %v", s.Values, want)
		}
	}
	if !s.Vertices[0].Equal(Point{2, 0}) {
		t.Errorf("best vertex = %v, want (2,0)", s.Vertices[0])
	}
	b, bv := s.Best()
	if bv != 1 || !b.Equal(Point{2, 0}) {
		t.Errorf("Best = %v,%g", b, bv)
	}
	w, wv := s.Worst()
	if wv != 5 || !w.Equal(Point{1, 0}) {
		t.Errorf("Worst = %v,%g", w, wv)
	}
}

func TestSimplexSortStable(t *testing.T) {
	s := NewSimplex([]Point{{1}, {2}, {3}})
	s.Values = []float64{1, 1, 1}
	s.Sort()
	if !s.Vertices[0].Equal(Point{1}) || !s.Vertices[1].Equal(Point{2}) {
		t.Errorf("tie order not preserved: %v", s.Vertices)
	}
}

func TestSimplexUnevaluatedIsInf(t *testing.T) {
	s := NewSimplex([]Point{{0}})
	if !math.IsInf(s.Values[0], 1) {
		t.Error("unevaluated vertex should be +Inf")
	}
}

func TestSpreadAndCollapsed(t *testing.T) {
	s := NewSimplex([]Point{{0, 0}, {1, 3}, {2, 1}})
	if got := s.Spread(); got != 3 {
		t.Errorf("Spread = %g, want 3", got)
	}
	if s.Collapsed(2.9) {
		t.Error("should not be collapsed at tol 2.9")
	}
	if !s.Collapsed(3) {
		t.Error("should be collapsed at tol 3")
	}
	c := NewSimplex([]Point{{5, 5}, {5, 5}})
	if !c.Collapsed(0) {
		t.Error("identical vertices should collapse at tol 0")
	}
}

func TestCentroid(t *testing.T) {
	s := NewSimplex([]Point{{0, 0}, {2, 0}, {0, 2}})
	c := s.Centroid(0)
	want := Point{2.0 / 3, 2.0 / 3}
	if !c.Close(want, 1e-12) {
		t.Errorf("Centroid = %v, want %v", c, want)
	}
	c2 := s.Centroid(2)
	if !c2.Close(Point{1, 0}, 1e-12) {
		t.Errorf("Centroid(2) = %v, want (1,0)", c2)
	}
}

func TestRankAndDegenerate(t *testing.T) {
	full := NewSimplex([]Point{{0, 0}, {1, 0}, {0, 1}})
	if full.Rank() != 2 || full.Degenerate() {
		t.Errorf("full 2-D simplex: rank=%d degenerate=%v", full.Rank(), full.Degenerate())
	}
	line := NewSimplex([]Point{{0, 0}, {1, 1}, {2, 2}})
	if line.Rank() != 1 || !line.Degenerate() {
		t.Errorf("collinear simplex: rank=%d degenerate=%v", line.Rank(), line.Degenerate())
	}
	pt := NewSimplex([]Point{{3, 4}})
	if pt.Rank() != 0 || !pt.Degenerate() {
		t.Errorf("single point: rank=%d", pt.Rank())
	}
	empty := NewSimplex(nil)
	if !empty.Degenerate() {
		t.Error("empty simplex should be degenerate")
	}
	// 3-D full-rank with 6 vertices (2N style).
	s3 := NewSimplex([]Point{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}})
	if s3.Rank() != 3 || s3.Degenerate() {
		t.Errorf("2N 3-D simplex rank = %d", s3.Rank())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSimplex([]Point{{1, 2}})
	s.Values[0] = 7
	c := s.Clone()
	c.Vertices[0][0] = 99
	c.Values[0] = 0
	if s.Vertices[0][0] != 1 || s.Values[0] != 7 {
		t.Error("Clone aliases original")
	}
}

func TestInitial2N(t *testing.T) {
	s := MustNew(
		IntParam("ntheta", 8, 64),
		IntParam("negrid", 4, 32),
		DiscreteParam("nodes", 1, 2, 4, 8, 16, 32, 64),
	)
	sim := Initial2N(s, nil, 0.2)
	if sim.Len() != 6 {
		t.Fatalf("2N simplex has %d vertices, want 6", sim.Len())
	}
	for _, v := range sim.Vertices {
		if !s.Admissible(v) {
			t.Errorf("vertex %v not admissible", v)
		}
	}
	if sim.Degenerate() {
		t.Error("2N initial simplex must span the space")
	}
}

func TestInitialMinimal(t *testing.T) {
	s := MustNew(IntParam("a", 0, 100), IntParam("b", 0, 100))
	sim := InitialMinimal(s, nil, 0.2)
	if sim.Len() != 3 {
		t.Fatalf("minimal simplex has %d vertices, want 3", sim.Len())
	}
	for _, v := range sim.Vertices {
		if !s.Admissible(v) {
			t.Errorf("vertex %v not admissible", v)
		}
	}
	if sim.Degenerate() {
		t.Error("minimal initial simplex must span the space")
	}
	if !sim.Vertices[0].Equal(s.Center()) {
		t.Errorf("first vertex should be the centre, got %v", sim.Vertices[0])
	}
}

func TestInitialSimplexCustomCenter(t *testing.T) {
	s := MustNew(IntParam("a", 0, 100), IntParam("b", 0, 100))
	c := Point{10, 90}
	sim := Initial2N(s, c, 0.2)
	// Each vertex should differ from c in exactly one coordinate.
	for _, v := range sim.Vertices {
		diff := 0
		for i := range v {
			if v[i] != c[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("vertex %v differs from centre %v in %d coords", v, c, diff)
		}
	}
}

func TestInitialScale(t *testing.T) {
	s := MustNew(IntParam("a", 0, 100))
	b := InitialScale(s, 0.2)
	if math.Abs(b[0]-10) > 1e-12 {
		t.Errorf("b = %v, want [10] (0.1 * range per §3.2.3)", b)
	}
}

func TestConvergenceProbe(t *testing.T) {
	s := MustNew(IntParam("a", 0, 10), DiscreteParam("b", 1, 2, 4))
	// Interior point: 2 probes per parameter.
	probes := ConvergenceProbe(s, Point{5, 2})
	if len(probes) != 4 {
		t.Fatalf("interior probes = %d, want 4", len(probes))
	}
	for _, p := range probes {
		if !s.Admissible(p) {
			t.Errorf("probe %v not admissible", p)
		}
		if p.Equal(Point{5, 2}) {
			t.Errorf("probe equals the centre point")
		}
	}
	// Boundary point: lower probe of a and lower probe of b dropped.
	probes = ConvergenceProbe(s, Point{0, 1})
	if len(probes) != 2 {
		t.Fatalf("boundary probes = %d, want 2: %v", len(probes), probes)
	}
}

func TestSimplexString(t *testing.T) {
	s := NewSimplex([]Point{{1, 2}, {3, 4}})
	if s.String() == "" {
		t.Error("String empty")
	}
}

// Randomised invariant: simplex transforms projected into the space keep all
// vertices admissible and the vertex count fixed.
func TestTransformProjectionInvariant(t *testing.T) {
	s := MustNew(
		IntParam("ntheta", 8, 64),
		IntParam("negrid", 4, 32),
		DiscreteParam("nodes", 1, 2, 4, 8, 16, 32, 64),
	)
	rng := rand.New(rand.NewSource(42))
	sim := Initial2N(s, nil, 0.3)
	best := sim.Vertices[0]
	for iter := 0; iter < 200; iter++ {
		i := rng.Intn(sim.Len())
		var cand Point
		switch rng.Intn(3) {
		case 0:
			cand = Reflect(best, sim.Vertices[i])
		case 1:
			cand = Expand(best, sim.Vertices[i])
		default:
			cand = Shrink(best, sim.Vertices[i])
		}
		proj := s.Project(cand, best)
		if !s.Admissible(proj) {
			t.Fatalf("iter %d: projected point %v inadmissible (raw %v)", iter, proj, cand)
		}
		sim.Vertices[i] = proj
		if sim.Len() != 6 {
			t.Fatal("vertex count changed")
		}
	}
}

// sliceStableSort is the sort.SliceStable implementation Simplex.Sort
// replaced, kept as the reference its in-place insertion sort must match.
func sliceStableSort(s *Simplex) {
	idx := make([]int, len(s.Vertices))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Values[idx[a]] < s.Values[idx[b]] })
	vs := make([]Point, len(s.Vertices))
	vals := make([]float64, len(s.Values))
	for i, j := range idx {
		vs[i] = s.Vertices[j]
		vals[i] = s.Values[j]
	}
	s.Vertices = vs
	s.Values = vals
}

// randomSimplex builds n one-coordinate vertices, vertex i holding the
// coordinate i so that order identity is visible, with values drawn from a
// small pool (dense ties) plus ±Inf.
func randomSimplex(rng *rand.Rand, n int) *Simplex {
	pool := []float64{math.Inf(-1), -2, 0, 0.5, 1, 3, math.Inf(1)}
	vs := make([]Point, n)
	for i := range vs {
		vs[i] = Point{float64(i)}
	}
	s := NewSimplex(vs)
	for i := range s.Values {
		s.Values[i] = pool[rng.Intn(len(pool))]
	}
	return s
}

// Simplex.Sort must reproduce sort.SliceStable's order exactly: vertex
// identity, not just values, decides the optimiser's trajectory. Counts run
// past 20, where SliceStable switches from one insertion sort to
// insertion-sorted blocks plus merging.
func TestSimplexSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(41)
		got := randomSimplex(rng, n)
		want := got.Clone()
		got.Sort()
		sliceStableSort(want)
		for i := range want.Vertices {
			if got.Vertices[i][0] != want.Vertices[i][0] ||
				math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("n=%d: position %d holds vertex %v (%g), SliceStable has %v (%g)",
					n, i, got.Vertices[i], got.Values[i], want.Vertices[i], want.Values[i])
			}
		}
	}
}

// NaN estimates are outside the sort's contract (SliceStable itself has no
// unique stable order with them), so their behaviour is pinned explicitly:
// a NaN keeps its position and nothing moves past it, so each run of values
// between NaNs is sorted on its own. Up to 20 vertices, where SliceStable
// is a single insertion sort, this is exactly its order too.
func TestSimplexSortNaNIsABarrier(t *testing.T) {
	nan := math.NaN()
	s := NewSimplex([]Point{{0}, {1}, {2}, {3}, {4}, {5}, {6}})
	s.Values = []float64{3, 1, nan, 2, 0, nan, -1}
	s.Sort()
	wantIDs := []float64{1, 0, 2, 4, 3, 5, 6}
	for i, id := range wantIDs {
		if s.Vertices[i][0] != id {
			t.Fatalf("order %v, want vertex ids %v", s.Vertices, wantIDs)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(20)
		got := randomSimplex(rng, n)
		for i := range got.Values {
			if rng.Intn(4) == 0 {
				got.Values[i] = nan
			}
		}
		want := got.Clone()
		got.Sort()
		sliceStableSort(want)
		for i := range want.Vertices {
			if got.Vertices[i][0] != want.Vertices[i][0] {
				t.Fatalf("n=%d with NaN: order %v, SliceStable %v", n, got.Vertices, want.Vertices)
			}
		}
	}
}

// Sort runs twice per PRO step and sorts in place.
func TestSimplexSortAllocFree(t *testing.T) {
	s := randomSimplex(rand.New(rand.NewSource(3)), 9)
	vals := append([]float64(nil), s.Values...)
	verts := append([]Point(nil), s.Vertices...)
	alloccheck.Guard(t, "Simplex.Sort", 0, func() {
		copy(s.Values, vals)
		copy(s.Vertices, verts)
		s.Sort()
	})
}

// The initial simplex and the §3.2.2 probes are built once per session and
// once per collapse: each puts its points on one slab. Initial2N allocates
// the centre, the offsets, the vertex slice, the slab and the simplex's
// values and struct; ConvergenceProbe the probe slice and its slab.
func TestInitialSimplexAndProbeAllocs(t *testing.T) {
	s := MustNew(
		IntParam("ntheta", 8, 64),
		IntParam("negrid", 4, 32),
		DiscreteParam("nodes", 1, 2, 4, 8, 16, 32, 64),
	)
	var sim *Simplex
	alloccheck.Guard(t, "space.Initial2N", 6, func() { sim = Initial2N(s, nil, 0.2) })
	best := sim.Vertices[0]
	var probes []Point
	alloccheck.Guard(t, "space.ConvergenceProbe", 2, func() { probes = ConvergenceProbe(s, best) })
	if len(probes) != 6 {
		t.Fatalf("interior probes = %d, want 6", len(probes))
	}
}

// Points on one slab are independent: writing or appending to one leaves
// its neighbours as they were.
func TestOnSlabPointsIndependent(t *testing.T) {
	pts := OnSlab(make([]Point, 3), 2)
	for i, p := range pts {
		if len(p) != 2 || cap(p) != 2 {
			t.Fatalf("point %d has len %d cap %d, want 2 and 2", i, len(p), cap(p))
		}
		p[0], p[1] = float64(i), float64(i)
	}
	grown := append(pts[0], 9)
	grown[0] = -1
	for i, p := range pts {
		if !p.Equal(Point{float64(i), float64(i)}) {
			t.Errorf("point %d = %v after writing its neighbours", i, p)
		}
	}
}
