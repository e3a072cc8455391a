package space

import (
	"math"
	"strconv"
)

// Point is a parameter vector. Coordinates are ordered as the Space's
// parameters. A Point is a plain slice; callers that retain one across
// mutations must Clone it.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports exact coordinate-wise equality.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] { //paralint:allow floatcompare Equal's contract is exact coordinate identity
			return false
		}
	}
	return true
}

// Close reports coordinate-wise equality within tol.
func (p Point) Close(q Point, tol float64) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Abs(p[i]-q[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns p + q as a new point.
func (p Point) Add(q Point) Point {
	out := make(Point, len(p))
	for i := range p {
		out[i] = p[i] + q[i]
	}
	return out
}

// Sub returns p - q as a new point.
func (p Point) Sub(q Point) Point {
	out := make(Point, len(p))
	for i := range p {
		out[i] = p[i] - q[i]
	}
	return out
}

// Key returns a canonical string encoding of the point, usable as a map key
// for databases of evaluated configurations: the coordinates formatted as by
// fmt's %g, comma-separated.
func (p Point) Key() string {
	var buf [64]byte
	return string(p.AppendKey(buf[:0]))
}

// AppendKey appends p's Key to dst. Integral coordinates below 1e6 in
// magnitude, -0 excepted, take the integer formatter: for them %g's shortest
// form is the plain integer, and formatting an integer is several times
// cheaper than formatting a float.
func (p Point) AppendKey(dst []byte) []byte {
	for i, v := range p {
		if i > 0 {
			dst = append(dst, ',')
		}
		if n := int64(v); v > -1e6 && v < 1e6 && math.Float64bits(float64(n)) == math.Float64bits(v) {
			dst = strconv.AppendInt(dst, n, 10)
		} else {
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
	}
	return dst
}

// String formats the point as (v0, v1, ...).
func (p Point) String() string {
	var buf [64]byte
	b := p.AppendKey(append(buf[:0], '('))
	return string(append(b, ')'))
}

// Transform computes center + alpha*(center - x): the family of simplex
// transformations from §3.1. alpha = 1 reflects x through center, alpha = 2
// expands, alpha = -0.5 shrinks toward center.
func Transform(center, x Point, alpha float64) Point {
	return TransformTo(make(Point, len(center)), center, x, alpha)
}

// TransformTo writes Transform(center, x, alpha) into dst and returns it.
// Each coordinate is read before it is written, so dst may alias either
// argument.
func TransformTo(dst, center, x Point, alpha float64) Point {
	for i := range center {
		dst[i] = center[i] + alpha*(center[i]-x[i])
	}
	return dst
}

// Reflect returns 2*best - x (the PRO reflection of x around best, Alg. 2 l.5).
func Reflect(best, x Point) Point { return Transform(best, x, 1) }

// Expand returns 3*best - 2*x (the PRO expansion of x around best, Alg. 2 l.8).
func Expand(best, x Point) Point { return Transform(best, x, 2) }

// Shrink returns 0.5*(best + x) (the PRO shrink of x toward best, Alg. 2 l.16).
func Shrink(best, x Point) Point { return ShrinkTo(make(Point, len(best)), best, x) }

// ShrinkTo writes Shrink(best, x) into dst and returns it; dst may alias
// either argument.
func ShrinkTo(dst, best, x Point) Point {
	for i := range best {
		dst[i] = 0.5 * (best[i] + x[i])
	}
	return dst
}
