package objective

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"paratune/internal/space"
)

func TestGS2SpaceShape(t *testing.T) {
	s := GS2Space()
	if s.Dim() != 3 {
		t.Fatalf("dim = %d", s.Dim())
	}
	n, ok := s.GridSize()
	if !ok {
		t.Fatal("GS2 space should be fully discrete")
	}
	// 57 ntheta values * 29 negrid values * 7 node counts.
	if n != 57*29*7 {
		t.Errorf("grid size = %d, want %d", n, 57*29*7)
	}
}

func TestGenerateGS2Deterministic(t *testing.T) {
	a := GenerateGS2(GS2Config{Seed: 42})
	b := GenerateGS2(GS2Config{Seed: 42})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	probe := space.Point{36, 18, 8}
	if a.Eval(probe) != b.Eval(probe) {
		t.Error("same seed gave different values")
	}
	c := GenerateGS2(GS2Config{Seed: 43})
	if a.Eval(probe) == c.Eval(probe) {
		t.Error("different seeds should give different databases")
	}
}

func TestGenerateGS2Coverage(t *testing.T) {
	full := GenerateGS2(GS2Config{Seed: 1, Coverage: 1})
	n, _ := GS2Space().GridSize()
	if full.Len() != n {
		t.Errorf("full coverage stored %d, want %d", full.Len(), n)
	}
	partial := GenerateGS2(GS2Config{Seed: 1, Coverage: 0.5})
	if partial.Len() >= full.Len() || partial.Len() < n/3 {
		t.Errorf("half coverage stored %d of %d", partial.Len(), n)
	}
	// Centre is always retained.
	if _, ok := partial.Lookup(GS2Space().Center()); !ok {
		t.Error("centre point missing from partial database")
	}
}

func TestGS2ValuesPositiveAndFinite(t *testing.T) {
	db := GenerateGS2(GS2Config{Seed: 7, Coverage: 1})
	s := GS2Space()
	err := s.Enumerate(func(p space.Point) {
		v := db.Eval(p)
		if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("value at %v is %g", p, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGS2Interpolation(t *testing.T) {
	db := GenerateGS2(GS2Config{Seed: 7, Coverage: 0.6})
	// A missing point must still evaluate via neighbours.
	s := GS2Space()
	var missing space.Point
	_ = s.Enumerate(func(p space.Point) {
		if missing == nil {
			if _, ok := db.Lookup(p); !ok {
				missing = p.Clone()
			}
		}
	})
	if missing == nil {
		t.Skip("database happened to be complete")
	}
	v := db.Eval(missing)
	if v <= 0 || math.IsInf(v, 0) {
		t.Fatalf("interpolated value = %g", v)
	}
	// Interpolation should stay within the range of stored values.
	_, min, err := db.Min()
	if err != nil {
		t.Fatal(err)
	}
	var max float64
	for _, val := range db.knn.vals {
		if val > max {
			max = val
		}
	}
	if v < min || v > max {
		t.Errorf("interpolated %g outside stored range [%g, %g]", v, min, max)
	}
}

func TestDBEmptyEval(t *testing.T) {
	db, err := NewDB(GS2Space(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(db.Eval(space.Point{8, 4, 1}), 1) {
		t.Error("empty DB should evaluate to +Inf")
	}
	if _, _, err := db.Min(); err == nil {
		t.Error("Min on empty DB should error")
	}
}

func TestNewDBRejectsContinuous(t *testing.T) {
	s := space.MustNew(space.ContinuousParam("x", 0, 1))
	if _, err := NewDB(s, 4); err == nil {
		t.Error("continuous space should be rejected")
	}
}

func TestDBAddOverwrites(t *testing.T) {
	db, _ := NewDB(GS2Space(), 2)
	p := space.Point{10, 10, 4}
	db.Add(p, 5)
	db.Add(p, 7)
	if db.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", db.Len())
	}
	if v, _ := db.Lookup(p); v != 7 {
		t.Errorf("Lookup = %g, want 7", v)
	}
}

func TestDBExactHitBeatsInterpolation(t *testing.T) {
	db, _ := NewDB(GS2Space(), 4)
	db.Add(space.Point{10, 10, 4}, 3)
	db.Add(space.Point{12, 10, 4}, 9)
	if got := db.Eval(space.Point{10, 10, 4}); got != 3 {
		t.Errorf("exact hit = %g, want 3", got)
	}
	// Midpoint leans toward nearer neighbour.
	mid := db.Eval(space.Point{11, 10, 4})
	if mid <= 3 || mid >= 9 {
		t.Errorf("interpolated midpoint = %g, want strictly between", mid)
	}
}

func TestDBMin(t *testing.T) {
	db, _ := NewDB(GS2Space(), 2)
	db.Add(space.Point{10, 10, 4}, 5)
	db.Add(space.Point{20, 10, 4}, 2)
	db.Add(space.Point{30, 10, 4}, 8)
	p, v, err := db.Min()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || !p.Equal(space.Point{20, 10, 4}) {
		t.Errorf("Min = %v, %g", p, v)
	}
}

func TestSlice(t *testing.T) {
	db := GenerateGS2(GS2Config{Seed: 3, Coverage: 1})
	xs, ys, z, err := db.Slice(0, 1, 8) // ntheta x negrid at nodes=8
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 57 || len(ys) != 29 {
		t.Fatalf("axes = %d x %d", len(xs), len(ys))
	}
	if len(z) != len(xs) || len(z[0]) != len(ys) {
		t.Fatalf("z shape = %d x %d", len(z), len(z[0]))
	}
	for i := range z {
		for j := range z[i] {
			if z[i][j] <= 0 {
				t.Fatalf("z[%d][%d] = %g", i, j, z[i][j])
			}
		}
	}
	if _, _, _, err := db.Slice(0, 0, 8); err == nil {
		t.Error("same axes should error")
	}
	if _, _, _, err := db.Slice(-1, 1, 8); err == nil {
		t.Error("bad axis should error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := GenerateGS2(GS2Config{Seed: 11, Coverage: 0.3})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(GS2Space(), 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded %d points, saved %d", loaded.Len(), db.Len())
	}
	probe := GS2Space().Center()
	if got, want := loaded.Eval(probe), db.Eval(probe); math.Abs(got-want) > 1e-12 {
		t.Errorf("round-trip value %g != %g", got, want)
	}
}

func TestLoadDBErrors(t *testing.T) {
	s := GS2Space()
	cases := []struct {
		name, csv string
	}{
		{"wrong columns", "ntheta,negrid,nodes,time\n1,2\n"},
		{"bad float", "ntheta,negrid,nodes,time\nx,4,1,2\n"},
		{"bad time", "ntheta,negrid,nodes,time\n8,4,1,x\n"},
		{"inadmissible", "ntheta,negrid,nodes,time\n8,4,3,2\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadDB(s, 4, strings.NewReader(c.csv)); err == nil {
				t.Error("expected error")
			}
		})
	}
	// Blank lines are tolerated.
	ok := "ntheta,negrid,nodes,time\n\n8,4,1,2.5\n"
	db, err := LoadDB(s, 4, strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

// Fig. 8 qualitative check: the full surface has multiple grid-local minima.
func TestGS2SurfaceIsMultiModal(t *testing.T) {
	db := GenerateGS2(GS2Config{Seed: 5, Coverage: 1})
	xs, ys, z, err := db.Slice(0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	minima := 0
	for i := 1; i < len(xs)-1; i++ {
		for j := 1; j < len(ys)-1; j++ {
			v := z[i][j]
			if v < z[i-1][j] && v < z[i+1][j] && v < z[i][j-1] && v < z[i][j+1] {
				minima++
			}
		}
	}
	if minima < 5 {
		t.Errorf("surface slice has %d interior local minima, want >= 5 (Fig. 8 is rugged)", minima)
	}
}
