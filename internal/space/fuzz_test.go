package space

import (
	"math"
	"testing"
)

// FuzzProject: for any input coordinates, projection must return an
// admissible point and be idempotent.
func FuzzProject(f *testing.F) {
	f.Add(36.5, 18.2, 5.0)
	f.Add(-1e308, 1e308, math.Pi)
	f.Add(0.0, 0.0, 0.0)
	f.Add(math.Inf(1), math.Inf(-1), math.NaN())
	s := MustNew(
		IntParam("ntheta", 8, 64),
		IntParam("negrid", 4, 32),
		DiscreteParam("nodes", 1, 2, 4, 8, 16, 32, 64),
	)
	center := s.Center()
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		x := Point{a, b, c}
		p := s.Project(x, center)
		if !s.Admissible(p) {
			t.Fatalf("Project(%v) = %v not admissible", x, p)
		}
		if !s.Project(p, center).Equal(p) {
			t.Fatalf("Project not idempotent at %v", p)
		}
		n := s.ProjectNearest(x)
		if !s.Admissible(n) {
			t.Fatalf("ProjectNearest(%v) = %v not admissible", x, n)
		}
	})
}

// FuzzParameterNeighbors: neighbours must be admissible and bracket v.
func FuzzParameterNeighbors(f *testing.F) {
	f.Add(5.0)
	f.Add(-100.0)
	f.Add(math.NaN())
	p := DiscreteParam("d", 1, 2, 4, 8, 16)
	if err := p.validate(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		lo, hasLo, hi, hasHi := p.Neighbors(v)
		if hasLo && !p.Admissible(lo) {
			t.Fatalf("low neighbour %g of %g not admissible", lo, v)
		}
		if hasHi && !p.Admissible(hi) {
			t.Fatalf("high neighbour %g of %g not admissible", hi, v)
		}
		if hasLo && hasHi && lo >= hi {
			t.Fatalf("neighbours of %g out of order: %g >= %g", v, lo, hi)
		}
	})
}

// FuzzSpaceSignature: the signature is injective. Two lists that both
// validate sign alike exactly when their validated lists are equal, with
// floats compared by bits. Each list has one or two parameters; a second
// name of "" leaves it out. kinds and pairs give each parameter two bits:
// its kind, and which of four pairs of the floats are its bounds (a
// discrete parameter's menu).
func FuzzSpaceSignature(f *testing.F) {
	f.Add("a:continuous[0,1], b", "", "a", "b", uint8(0), uint8(0), 0.0, 1.0, 0.0, 1.0)
	f.Add("n", "", "n", "", uint8(0x22), uint8(0x04), 1.0, 2.0, 1.0, 3.0)
	f.Add("x", "y", "x", "y", uint8(0x11), uint8(0x44), 0.0, 1.0, math.Copysign(0, -1), 1.0)
	f.Add("p", "", "p", "", uint8(0x01), uint8(0x00), 0.5, 7.5, 1.0, 7.0)
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2 string, kinds, pairs uint8, x0, x1, x2, x3 float64) {
		bounds := [4][2]float64{{x0, x1}, {x2, x3}, {x1, x0}, {x0, x3}}
		list := func(names ...string) []Parameter {
			var ps []Parameter
			for _, name := range names {
				if name == "" && len(ps) > 0 {
					break
				}
				k, b := Kind(kinds&3%3), bounds[pairs&3]
				kinds, pairs = kinds>>2, pairs>>2
				if k == Discrete {
					ps = append(ps, DiscreteParam(name, b[0], b[1]))
				} else {
					ps = append(ps, Parameter{Name: name, Kind: k, Lower: b[0], Upper: b[1]})
				}
			}
			return ps
		}
		sa, err := New(list(a1, a2)...)
		if err != nil {
			return
		}
		sb, err := New(list(b1, b2)...)
		if err != nil {
			return
		}
		if same, sig := SameParams(sa.params, sb.params), sa.String() == sb.String(); same != sig {
			t.Fatalf("lists equal %v, signatures equal %v: %q and %q", same, sig, sa, sb)
		}
	})
}
