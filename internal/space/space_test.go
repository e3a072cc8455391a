package space

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSpace3(t *testing.T) *Space {
	t.Helper()
	s, err := New(
		IntParam("ntheta", 8, 64),
		IntParam("negrid", 4, 32),
		DiscreteParam("nodes", 1, 2, 4, 8, 16, 32, 64),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		params []Parameter
		ok     bool
	}{
		{"empty", nil, false},
		{"one continuous", []Parameter{ContinuousParam("x", 0, 1)}, true},
		{"reversed bounds", []Parameter{ContinuousParam("x", 1, 0)}, false},
		{"nan bound", []Parameter{ContinuousParam("x", math.NaN(), 1)}, false},
		{"empty name", []Parameter{ContinuousParam("", 0, 1)}, false},
		{"duplicate names", []Parameter{IntParam("x", 0, 1), IntParam("x", 0, 1)}, false},
		{"empty discrete", []Parameter{DiscreteParam("d")}, false},
		{"nan discrete", []Parameter{DiscreteParam("d", math.NaN())}, false},
		{"integer no value", []Parameter{IntParam("i", 0, 0)}, true},
		{"integer narrow empty", []Parameter{{Name: "i", Kind: Integer, Lower: 0.2, Upper: 0.8}}, false},
		{"unknown kind", []Parameter{{Name: "k", Kind: Kind(42), Lower: 0, Upper: 1}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.params...)
			if (err == nil) != c.ok {
				t.Errorf("New(%v) err=%v, want ok=%v", c.params, err, c.ok)
			}
		})
	}
}

func TestDiscreteNormalisation(t *testing.T) {
	s := MustNew(DiscreteParam("d", 4, 1, 2, 2, 8, 1))
	p := s.Param(0)
	want := []float64{1, 2, 4, 8}
	if len(p.Values) != len(want) {
		t.Fatalf("Values = %v, want %v", p.Values, want)
	}
	for i, v := range want {
		if p.Values[i] != v {
			t.Fatalf("Values = %v, want %v", p.Values, want)
		}
	}
	if p.Lower != 1 || p.Upper != 8 {
		t.Errorf("bounds = [%g,%g], want [1,8]", p.Lower, p.Upper)
	}
}

func TestIntegerBoundsNormalised(t *testing.T) {
	s := MustNew(Parameter{Name: "i", Kind: Integer, Lower: 1.2, Upper: 7.9})
	p := s.Param(0)
	if p.Lower != 2 || p.Upper != 7 {
		t.Errorf("bounds = [%g,%g], want [2,7]", p.Lower, p.Upper)
	}
}

func TestAdmissible(t *testing.T) {
	s := testSpace3(t)
	cases := []struct {
		x  Point
		ok bool
	}{
		{Point{8, 4, 1}, true},
		{Point{64, 32, 64}, true},
		{Point{36, 18, 8}, true},
		{Point{36.5, 18, 8}, false}, // non-integer
		{Point{36, 18, 3}, false},   // not in discrete set
		{Point{7, 18, 8}, false},    // below bound
		{Point{36, 33, 8}, false},   // above bound
		{Point{36, 18}, false},      // wrong dimension
		{Point{math.NaN(), 18, 8}, false},
	}
	for _, c := range cases {
		if got := s.Admissible(c.x); got != c.ok {
			t.Errorf("Admissible(%v) = %v, want %v", c.x, got, c.ok)
		}
	}
}

func TestProjectTowardCenter(t *testing.T) {
	s := testSpace3(t)
	center := Point{36, 18, 8}
	cases := []struct {
		name string
		x    Point
		want Point
	}{
		{"already admissible", Point{40, 20, 16}, Point{40, 20, 16}},
		{"round toward center from above", Point{40.5, 20, 16}, Point{40, 20, 16}},
		{"round toward center from below", Point{30.5, 20, 16}, Point{31, 20, 16}},
		{"discrete rounds toward center high", Point{40, 20, 5}, Point{40, 20, 8}},
		{"discrete rounds toward center low", Point{40, 20, 12}, Point{40, 20, 8}},
		{"clamp below", Point{-3, 20, 16}, Point{8, 20, 16}},
		{"clamp above", Point{90, 20, 16}, Point{64, 20, 16}},
		{"nan falls to center", Point{math.NaN(), 20, 16}, Point{36, 20, 16}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := s.Project(c.x, center)
			if !got.Equal(c.want) {
				t.Errorf("Project(%v) = %v, want %v", c.x, got, c.want)
			}
		})
	}
}

// Paper §3.2.1: after repeated shrinking toward the centre, discrete
// coordinates must become exactly equal to the centre's. Rounding toward the
// centre guarantees it; plain nearest rounding may oscillate.
func TestProjectShrinkConverges(t *testing.T) {
	s := testSpace3(t)
	center := Point{36, 18, 8}
	x := Point{64, 32, 64}
	for i := 0; i < 100; i++ {
		x = s.Project(Shrink(center, x), center)
		if x.Equal(center) {
			return
		}
	}
	t.Fatalf("shrink sequence did not converge to center: ended at %v", x)
}

func TestProjectAdmissibleProperty(t *testing.T) {
	s := testSpace3(t)
	center := s.Center()
	f := func(a, b, c float64) bool {
		x := Point{math.Mod(a, 1000), math.Mod(b, 1000), math.Mod(c, 1000)}
		return s.Admissible(s.Project(x, center))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectIdempotent(t *testing.T) {
	s := testSpace3(t)
	center := s.Center()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		x := Point{rng.Float64()*200 - 50, rng.Float64()*100 - 20, rng.Float64() * 100}
		p1 := s.Project(x, center)
		p2 := s.Project(p1, center)
		if !p1.Equal(p2) {
			t.Fatalf("projection not idempotent: %v -> %v -> %v", x, p1, p2)
		}
	}
}

func TestNearestAdmissible(t *testing.T) {
	p := DiscreteParam("n", 1, 2, 4, 8)
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ in, want float64 }{
		{0, 1}, {1, 1}, {1.4, 1}, {1.5, 1}, {1.6, 2}, {3, 2}, {3.1, 4}, {6, 4}, {6.1, 8}, {9, 8},
	}
	for _, c := range cases {
		if got := p.NearestAdmissible(c.in); got != c.want {
			t.Errorf("NearestAdmissible(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestNeighbors(t *testing.T) {
	s := testSpace3(t)
	// Integer interior.
	p := s.Param(0)
	lo, hasLo, hi, hasHi := p.Neighbors(36)
	if !hasLo || lo != 35 || !hasHi || hi != 37 {
		t.Errorf("int Neighbors(36) = %g,%v %g,%v", lo, hasLo, hi, hasHi)
	}
	// Integer boundary.
	_, hasLo, hi, hasHi = p.Neighbors(8)
	if hasLo || !hasHi || hi != 9 {
		t.Errorf("int Neighbors(8) lower should not exist")
	}
	// Discrete interior.
	d := s.Param(2)
	lo, hasLo, hi, hasHi = d.Neighbors(8)
	if !hasLo || lo != 4 || !hasHi || hi != 16 {
		t.Errorf("discrete Neighbors(8) = %g,%v %g,%v", lo, hasLo, hi, hasHi)
	}
	// Discrete boundary high.
	lo, hasLo, _, hasHi = d.Neighbors(64)
	if !hasLo || lo != 32 || hasHi {
		t.Errorf("discrete Neighbors(64) = %g,%v hasHi=%v", lo, hasLo, hasHi)
	}
	// Continuous.
	c := ContinuousParam("x", 0, 1)
	lo, hasLo, hi, hasHi = c.Neighbors(0.5)
	if !hasLo || !hasHi || lo >= 0.5 || hi <= 0.5 {
		t.Errorf("continuous Neighbors(0.5) = %g,%v %g,%v", lo, hasLo, hi, hasHi)
	}
	// Degenerate continuous with zero range.
	z := ContinuousParam("z", 2, 2)
	_, hasLo, _, hasHi = z.Neighbors(2)
	if hasLo || hasHi {
		t.Errorf("zero-range param should have no neighbours")
	}
}

func TestCenter(t *testing.T) {
	s := testSpace3(t)
	c := s.Center()
	if !s.Admissible(c) {
		t.Fatalf("Center %v not admissible", c)
	}
	if c[0] != 36 || c[1] != 18 {
		t.Errorf("Center = %v, want (36, 18, ...)", c)
	}
}

func TestRandomAdmissible(t *testing.T) {
	s := testSpace3(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if x := s.Random(rng); !s.Admissible(x) {
			t.Fatalf("Random produced inadmissible %v", x)
		}
	}
}

func TestGridSizeAndEnumerate(t *testing.T) {
	s := MustNew(IntParam("a", 0, 2), DiscreteParam("b", 1, 5))
	n, ok := s.GridSize()
	if !ok || n != 6 {
		t.Fatalf("GridSize = %d,%v want 6,true", n, ok)
	}
	var count int
	seen := map[string]bool{}
	if err := s.Enumerate(func(p Point) {
		count++
		seen[p.Key()] = true
		if !s.Admissible(p) {
			t.Errorf("enumerated inadmissible %v", p)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if count != 6 || len(seen) != 6 {
		t.Errorf("Enumerate visited %d points (%d unique), want 6", count, len(seen))
	}

	cs := MustNew(ContinuousParam("x", 0, 1))
	if _, ok := cs.GridSize(); ok {
		t.Error("continuous space should not have GridSize")
	}
	if err := cs.Enumerate(func(Point) {}); err == nil {
		t.Error("Enumerate on continuous space should error")
	}
}

func TestIndexAndNames(t *testing.T) {
	s := testSpace3(t)
	names := s.Names()
	if len(names) != 3 || names[2] != "nodes" {
		t.Errorf("Names = %v", names)
	}
}

func TestKindString(t *testing.T) {
	if Continuous.String() != "continuous" || Integer.String() != "integer" || Discrete.String() != "discrete" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still format")
	}
}

// TestSpaceString pins the signature's form and that it tells discrete
// menus apart: two spaces whose menus share their bounds are different
// spaces, and a menu listed in another order or with a repeat is the same.
func TestSpaceString(t *testing.T) {
	s := testSpace3(t)
	if got, want := s.String(), "space{ntheta:integer[8,64], negrid:integer[4,32], nodes:discrete[1,64]{1,2,4,8,16,32,64}}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	sig := func(values ...float64) string { return MustNew(DiscreteParam("n", values...)).String() }
	if a, b := sig(1, 2, 4), sig(1, 3, 4); a == b {
		t.Errorf("menus {1,2,4} and {1,3,4} share the signature %q", a)
	}
	if a, b := sig(1, 2, 4), sig(4, 1, 2, 2); a != b {
		t.Errorf("one menu spelt two ways signs as %q and %q", a, b)
	}
	// A comma in a name would let this 1-D list sign as the 2-D list a, b.
	twoD := MustNew(ContinuousParam("a", 0, 1), ContinuousParam("b", 0, 1)).String()
	if s, err := New(ContinuousParam("a:continuous[0,1], b", 0, 1)); err == nil {
		t.Errorf("a name holding a comma was accepted; its list signs as %q, the 2-D list as %q", s, twoD)
	}
}

// fmtSpaceString is the fmt-based body Space.String had before it appended
// with strconv, plus the discrete menu, kept as the reference: the string is
// the space's signature in measuredb's WAL and PHSYNC1's hello, so its bytes
// must not move by accident.
func fmtSpaceString(s *Space) string {
	var b strings.Builder
	b.WriteString("space{")
	for i, p := range s.params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s[%g,%g]", p.Name, p.Kind, p.Lower, p.Upper)
		if p.Kind == Discrete {
			b.WriteString("{")
			for j, v := range p.Values {
				if j > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "%g", v)
			}
			b.WriteString("}")
		}
	}
	b.WriteString("}")
	return b.String()
}

func TestSpaceStringMatchesFmt(t *testing.T) {
	bounds := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, 64, 0.5, 0.1, 1.0 / 3, -2.75,
		1e-4, 1e-5, 1e-7, 1.5e-7, 123456, 1e5, 1e6, 999999, 1e20, 1e21, -1e21,
		1e22, 123456789012345678901234, 1 << 53, 1<<53 + 2, 9007199254740993,
		5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
		0.30000000000000004, 100, 1e15, 1e16, 1.7976931348623157e308,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	var params []Parameter
	for i, lo := range bounds {
		hi := bounds[(i*7+3)%len(bounds)]
		kind := Kind(i % 4) // Kind(3) exercises the unknown-kind form
		var menu []float64
		if kind == Discrete {
			menu = []float64{lo, hi}
		}
		params = append(params, Parameter{Name: fmt.Sprintf("p%d", i), Kind: kind, Lower: lo, Upper: hi, Values: menu})
		single := &Space{params: params[i:]}
		if got, want := single.String(), fmtSpaceString(single); got != want {
			t.Errorf("String() = %q, fmt gives %q", got, want)
		}
	}
	all := &Space{params: params}
	if got, want := all.String(), fmtSpaceString(all); got != want {
		t.Errorf("String() = %q, fmt gives %q", got, want)
	}
	gs2 := testSpace3(t)
	if got, want := gs2.String(), fmtSpaceString(gs2); got != want {
		t.Errorf("String() = %q, fmt gives %q", got, want)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid space")
		}
	}()
	MustNew()
}
