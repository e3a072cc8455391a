package space

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"paratune/internal/alloccheck"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 5, 6}
	if got := p.Add(q); !got.Equal(Point{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); !got.Equal(Point{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
}

func TestPointCloneIndependent(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestPointEqualAndClose(t *testing.T) {
	if !(Point{1, 2}).Equal(Point{1, 2}) {
		t.Error("Equal false negative")
	}
	if (Point{1, 2}).Equal(Point{1, 2, 3}) {
		t.Error("Equal across dimensions")
	}
	if (Point{1, 2}).Equal(Point{1, 3}) {
		t.Error("Equal false positive")
	}
	if !(Point{1, 2}).Close(Point{1.0001, 2}, 0.001) {
		t.Error("Close false negative")
	}
	if (Point{1, 2}).Close(Point{1.1, 2}, 0.001) {
		t.Error("Close false positive")
	}
	if (Point{1}).Close(Point{1, 2}, 1) {
		t.Error("Close across dimensions")
	}
}

// dist is the Euclidean distance between p and q, the reference the
// geometry properties below measure with.
func dist(p, q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// norm is the Euclidean norm of p.
func norm(p Point) float64 { return dist(p, make(Point, len(p))) }

func TestDistNorm(t *testing.T) {
	if d := dist(Point{0, 3}, Point{4, 0}); math.Abs(d-5) > 1e-12 {
		t.Errorf("dist = %g, want 5", d)
	}
	if n := norm(Point{3, 4}); math.Abs(n-5) > 1e-12 {
		t.Errorf("norm = %g, want 5", n)
	}
}

func TestKeyDistinct(t *testing.T) {
	a := Point{1, 2, 3}
	b := Point{1, 2, 4}
	if a.Key() == b.Key() {
		t.Error("distinct points share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Error("equal points have different keys")
	}
	if a.String() != "(1,2,3)" {
		t.Errorf("String = %q", a.String())
	}
}

// Key is the event stream's Config field and the GS2 jitter hash input, so
// its bytes are pinned to fmt's %g, including the special values.
func TestPointKeyMatchesFmt(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e21, 1e-7, 0.1, 2.5e6,
		// Edges of the integer fast path.
		99999, -99999, 100000, -100000, 999999, -999999, 1e6, -1e6, 1 << 53, 999999.5, -0.5}
	for _, v := range vals {
		p := Point{v, 64, v}
		want := fmt.Sprintf("%g,%g,%g", v, 64.0, v)
		if got := p.Key(); got != want {
			t.Errorf("Key(%v) = %q, fmt gives %q", v, got, want)
		}
		if got := p.String(); got != "("+want+")" {
			t.Errorf("String = %q, want (%s)", got, want)
		}
	}
}

func TestPointKeyAllocs(t *testing.T) {
	p := Point{36, 18, 8}
	var sink string
	alloccheck.Guard(t, "space.Point.Key", 1, func() { sink = p.Key() })
	_ = sink
}

func TestTransformFamilies(t *testing.T) {
	best := Point{2, 2}
	x := Point{4, 0}
	if got := Reflect(best, x); !got.Equal(Point{0, 4}) {
		t.Errorf("Reflect = %v, want (0,4)", got)
	}
	if got := Expand(best, x); !got.Equal(Point{-2, 6}) {
		t.Errorf("Expand = %v, want (-2,6)", got)
	}
	if got := Shrink(best, x); !got.Equal(Point{3, 1}) {
		t.Errorf("Shrink = %v, want (3,1)", got)
	}
}

// The destination forms compute exactly what the allocating forms do, also
// when the destination is one of the arguments.
func TestTransformToMatchesTransform(t *testing.T) {
	best, x := Point{2, 0.3}, Point{4.1, -7}
	for _, alpha := range []float64{1, 2, -0.5} {
		want := Transform(best, x, alpha)
		if got := TransformTo(make(Point, 2), best, x, alpha); !got.Equal(want) {
			t.Errorf("TransformTo(alpha %g) = %v, want %v", alpha, got, want)
		}
		if got := TransformTo(x.Clone(), best, x.Clone(), alpha); !got.Equal(want) {
			t.Errorf("TransformTo(alpha %g) into x = %v, want %v", alpha, got, want)
		}
	}
	want := Shrink(best, x)
	if got := ShrinkTo(make(Point, 2), best, x); !got.Equal(want) {
		t.Errorf("ShrinkTo = %v, want %v", got, want)
	}
	y := x.Clone()
	if got := ShrinkTo(y, best, y); !got.Equal(want) {
		t.Errorf("ShrinkTo into x = %v, want %v", got, want)
	}
}

// Reflection is an involution: reflecting twice returns the original point.
func TestReflectInvolution(t *testing.T) {
	f := func(rb1, rb2, rx1, rx2 float64) bool {
		best := Point{math.Mod(rb1, 1e6), math.Mod(rb2, 1e6)}
		x := Point{math.Mod(rx1, 1e6), math.Mod(rx2, 1e6)}
		return Reflect(best, Reflect(best, x)).Close(x, 1e-9*(1+norm(x)+norm(best)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Expansion equals reflecting then stepping the same distance again:
// e = best + 2(best-x), so e - r = best - x.
func TestExpandGeometry(t *testing.T) {
	f := func(rb, rx float64) bool {
		b1, x1 := math.Mod(rb, 1e6), math.Mod(rx, 1e6)
		best, x := Point{b1}, Point{x1}
		r := Reflect(best, x)
		e := Expand(best, x)
		return math.Abs((e[0]-r[0])-(best[0]-x[0])) < 1e-9*(1+math.Abs(b1)+math.Abs(x1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Shrink halves the distance to best.
func TestShrinkHalvesDistance(t *testing.T) {
	f := func(rb1, rb2, rx1, rx2 float64) bool {
		best := Point{math.Mod(rb1, 1e6), math.Mod(rb2, 1e6)}
		x := Point{math.Mod(rx1, 1e6), math.Mod(rx2, 1e6)}
		s := Shrink(best, x)
		return math.Abs(dist(s, best)-dist(x, best)/2) < 1e-9*(1+dist(x, best))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
