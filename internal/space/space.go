// Package space models tunable-parameter search spaces for on-line tuning.
//
// A Space is an ordered list of Parameters, each continuous, integer-valued,
// or restricted to an explicit discrete set of admissible values. The package
// implements the projection operator Π from §3.2.1 of the paper, which maps
// arbitrary transformed points back into the admissible region by clamping to
// bounds and rounding discrete parameters toward the transformation centre.
//
// Points are plain slices, and no method changes a Space once built, so one
// Space may back many sessions (harmony interns one per parameter list). The
// transforms come in two forms: Transform and Shrink return a fresh point,
// and TransformTo and ShrinkTo write into a destination the caller owns.
// PRO uses the second with OnSlab, which carves a batch of fresh points
// from one allocation: a point handed to an evaluator is never written
// again, while the slice holding a batch may be reused.
package space

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies how a parameter's admissible values are defined.
type Kind int

const (
	// Continuous parameters admit any real value in [Lower, Upper].
	Continuous Kind = iota
	// Integer parameters admit integer values in [Lower, Upper].
	Integer
	// Discrete parameters admit only the explicit Values list.
	Discrete
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Integer:
		return "integer"
	case Discrete:
		return "discrete"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Parameter describes one tunable variable.
//
// For Continuous and Integer parameters, Lower and Upper bound the admissible
// range. For Discrete parameters, Values lists every admissible value; the
// constructor sorts it and derives Lower/Upper from its extremes.
type Parameter struct {
	Name   string
	Kind   Kind
	Lower  float64
	Upper  float64
	Values []float64 // admissible values, Discrete only
}

// ContinuousParam returns a continuous parameter on [lo, hi].
func ContinuousParam(name string, lo, hi float64) Parameter {
	return Parameter{Name: name, Kind: Continuous, Lower: lo, Upper: hi}
}

// IntParam returns an integer parameter on [lo, hi].
func IntParam(name string, lo, hi int) Parameter {
	return Parameter{Name: name, Kind: Integer, Lower: float64(lo), Upper: float64(hi)}
}

// DiscreteParam returns a parameter restricted to the given values.
func DiscreteParam(name string, values ...float64) Parameter {
	return Parameter{Name: name, Kind: Discrete, Values: values}
}

// validate checks internal consistency and normalises the parameter.
func (p *Parameter) validate() error {
	if p.Name == "" {
		return errors.New("space: parameter has empty name")
	}
	if strings.Contains(p.Name, ",") {
		// The signature separates parameters with ", ": a comma in a name
		// would let one list print as another (see String).
		return fmt.Errorf("space: parameter name %q contains a comma", p.Name)
	}
	switch p.Kind {
	case Continuous, Integer:
		p.Values = nil // only a discrete parameter has a menu
		if math.IsNaN(p.Lower) || math.IsNaN(p.Upper) {
			return fmt.Errorf("space: parameter %q has NaN bound", p.Name)
		}
		if p.Lower > p.Upper {
			return fmt.Errorf("space: parameter %q has Lower %g > Upper %g", p.Name, p.Lower, p.Upper)
		}
		if p.Kind == Integer {
			p.Lower = math.Ceil(p.Lower)
			p.Upper = math.Floor(p.Upper)
			if p.Lower > p.Upper {
				return fmt.Errorf("space: integer parameter %q has no admissible value", p.Name)
			}
		}
	case Discrete:
		if len(p.Values) == 0 {
			return fmt.Errorf("space: discrete parameter %q has no values", p.Name)
		}
		vs := append([]float64(nil), p.Values...)
		sort.Float64s(vs)
		// Deduplicate and reject NaN.
		out := vs[:0]
		for i, v := range vs {
			if math.IsNaN(v) {
				return fmt.Errorf("space: discrete parameter %q has NaN value", p.Name)
			}
			if i == 0 || v != out[len(out)-1] { //paralint:allow floatcompare exact dedup over a sorted menu
				out = append(out, v)
			}
		}
		p.Values = out
		p.Lower = out[0]
		p.Upper = out[len(out)-1]
	default:
		return fmt.Errorf("space: parameter %q has unknown kind %d", p.Name, int(p.Kind))
	}
	return nil
}

// Admissible reports whether v is an admissible value for the parameter.
func (p Parameter) Admissible(v float64) bool {
	if math.IsNaN(v) || v < p.Lower || v > p.Upper {
		return false
	}
	switch p.Kind {
	case Integer:
		return v == math.Trunc(v) //paralint:allow floatcompare exact integrality probe
	case Discrete:
		i := sort.SearchFloat64s(p.Values, v)
		return i < len(p.Values) && p.Values[i] == v //paralint:allow floatcompare exact menu membership
	default:
		return true
	}
}

// Neighbors returns the admissible values immediately below and above v, for
// use by the convergence probe of §3.2.2. The boolean results report whether
// such a neighbour exists (boundary values have only one). For continuous
// parameters the neighbours are v ± eps where eps is a small fraction of the
// range.
func (p Parameter) Neighbors(v float64) (lo float64, hasLo bool, hi float64, hasHi bool) {
	switch p.Kind {
	case Continuous:
		eps := (p.Upper - p.Lower) * 1e-3
		if eps == 0 {
			return v, false, v, false
		}
		if v-eps >= p.Lower {
			lo, hasLo = v-eps, true
		}
		if v+eps <= p.Upper {
			hi, hasHi = v+eps, true
		}
		return
	case Integer:
		f := math.Round(v)
		if f-1 >= p.Lower {
			lo, hasLo = f-1, true
		}
		if f+1 <= p.Upper {
			hi, hasHi = f+1, true
		}
		return
	default: // Discrete
		i := sort.SearchFloat64s(p.Values, v)
		// i is the first index with Values[i] >= v.
		if i > 0 {
			lo, hasLo = p.Values[i-1], true
			if i < len(p.Values) && p.Values[i] == v { //paralint:allow floatcompare exact menu membership
				// exact hit: lower neighbour is Values[i-1], fine as is
				_ = lo
			}
		}
		j := i
		if j < len(p.Values) && p.Values[j] == v { //paralint:allow floatcompare exact menu membership
			j++
		}
		if j < len(p.Values) {
			hi, hasHi = p.Values[j], true
		}
		return
	}
}

// bracket returns the admissible values l <= v <= u that tightly bracket v
// after clamping into range. If v is admissible, l == u == the rounded v.
func (p Parameter) bracket(v float64) (l, u float64) {
	if v <= p.Lower {
		return p.Lower, p.Lower
	}
	if v >= p.Upper {
		return p.Upper, p.Upper
	}
	switch p.Kind {
	case Continuous:
		return v, v
	case Integer:
		return math.Floor(v), math.Ceil(v)
	default: // Discrete
		i := sort.SearchFloat64s(p.Values, v)
		if i < len(p.Values) && p.Values[i] == v { //paralint:allow floatcompare exact menu membership
			return v, v
		}
		return p.Values[i-1], p.Values[i]
	}
}

// Project maps v to an admissible value, rounding toward center when v falls
// strictly between two admissible values (§3.2.1). Out-of-range values clamp
// to the nearest bound.
func (p Parameter) Project(v, center float64) float64 {
	if math.IsNaN(v) {
		return p.Project(center, center)
	}
	l, u := p.bracket(v)
	if l == u { //paralint:allow floatcompare bracket returns admissible values verbatim; equality means exact hit
		return l
	}
	// v lies strictly between consecutive admissible values l < v < u.
	// Round to whichever is closer to the transformation centre.
	switch {
	case center < v:
		return l
	case center > v:
		return u
	default:
		// Centre coincides with v (inadmissible centre); fall back to nearest.
		if v-l <= u-v {
			return l
		}
		return u
	}
}

// NearestAdmissible rounds v to the closest admissible value (ties go low).
// This is the plain rounding that §3.2.1's centre-directed rule replaces; it
// is kept for the projection ablation.
func (p Parameter) NearestAdmissible(v float64) float64 {
	if math.IsNaN(v) {
		return p.Lower
	}
	l, u := p.bracket(v)
	if v-l <= u-v {
		return l
	}
	return u
}

// Range returns Upper - Lower.
func (p Parameter) Range() float64 { return p.Upper - p.Lower }

// Center returns the admissible value closest to the middle of the range.
func (p Parameter) Center() float64 {
	mid := p.Lower + p.Range()/2
	return p.NearestAdmissible(mid)
}

// Space is an ordered, validated collection of parameters.
type Space struct {
	params []Parameter
}

// New validates the parameters and returns a Space. Parameter names must be
// unique and non-empty.
func New(params ...Parameter) (*Space, error) {
	if len(params) == 0 {
		return nil, errors.New("space: need at least one parameter")
	}
	seen := make(map[string]bool, len(params))
	ps := make([]Parameter, len(params))
	copy(ps, params)
	for i := range ps {
		if err := ps[i].validate(); err != nil {
			return nil, err
		}
		if seen[ps[i].Name] {
			return nil, fmt.Errorf("space: duplicate parameter name %q", ps[i].Name)
		}
		seen[ps[i].Name] = true
	}
	return &Space{params: ps}, nil
}

// MustNew is New that panics on error; for tests and static literals.
func MustNew(params ...Parameter) *Space {
	s, err := New(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the number of parameters N.
func (s *Space) Dim() int { return len(s.params) }

// Param returns the i-th parameter.
func (s *Space) Param(i int) Parameter { return s.params[i] }

// Names returns the parameter names in order.
func (s *Space) Names() []string {
	names := make([]string, len(s.params))
	for i, p := range s.params {
		names[i] = p.Name
	}
	return names
}

// Center returns the admissible centre point c of the region.
func (s *Space) Center() Point {
	c := make(Point, len(s.params))
	for i := range s.params {
		c[i] = s.params[i].Center()
	}
	return c
}

// Admissible reports whether every coordinate of x is admissible.
func (s *Space) Admissible(x Point) bool {
	if len(x) != len(s.params) {
		return false
	}
	for i := range s.params {
		if !s.params[i].Admissible(x[i]) {
			return false
		}
	}
	return true
}

// Project applies Π coordinate-wise, rounding toward center (§3.2.1).
// The result is always admissible.
func (s *Space) Project(x, center Point) Point {
	return s.ProjectTo(make(Point, len(s.params)), x, center)
}

// ProjectTo writes Project(x, center) into dst and returns it. dst may be x
// itself (projection in place) but must not alias center.
func (s *Space) ProjectTo(dst, x, center Point) Point {
	for i := range s.params {
		dst[i] = s.params[i].Project(x[i], center[i])
	}
	return dst
}

// ProjectNearest applies plain nearest-value rounding coordinate-wise.
func (s *Space) ProjectNearest(x Point) Point {
	return s.ProjectNearestTo(make(Point, len(s.params)), x)
}

// ProjectNearestTo writes ProjectNearest(x) into dst and returns it; dst may
// be x itself.
func (s *Space) ProjectNearestTo(dst, x Point) Point {
	for i := range s.params {
		dst[i] = s.params[i].NearestAdmissible(x[i])
	}
	return dst
}

// Random returns a uniformly sampled admissible point.
func (s *Space) Random(rng *rand.Rand) Point {
	x := make(Point, len(s.params))
	for i, p := range s.params {
		switch p.Kind {
		case Continuous:
			x[i] = p.Lower + rng.Float64()*p.Range()
		case Integer:
			x[i] = p.Lower + float64(rng.Intn(int(p.Range())+1))
		default:
			x[i] = p.Values[rng.Intn(len(p.Values))]
		}
	}
	return x
}

// GridSize returns the number of admissible points when all parameters are
// discrete or integer, and (count, true). For spaces with any continuous
// parameter it returns (0, false).
func (s *Space) GridSize() (int, bool) {
	n := 1
	for _, p := range s.params {
		switch p.Kind {
		case Continuous:
			return 0, false
		case Integer:
			n *= int(p.Range()) + 1
		default:
			n *= len(p.Values)
		}
	}
	return n, true
}

// Enumerate calls fn for every admissible point of a fully discrete space in
// lexicographic order. It returns an error for spaces with continuous
// parameters. fn receives a reused buffer; it must copy the point to retain it.
func (s *Space) Enumerate(fn func(Point)) error {
	for _, p := range s.params {
		if p.Kind == Continuous {
			return fmt.Errorf("space: cannot enumerate continuous parameter %q", p.Name)
		}
	}
	x := make(Point, len(s.params))
	var rec func(i int)
	rec = func(i int) {
		if i == len(s.params) {
			fn(x)
			return
		}
		p := s.params[i]
		if p.Kind == Integer {
			for v := p.Lower; v <= p.Upper; v++ {
				x[i] = v
				rec(i + 1)
			}
			return
		}
		for _, v := range p.Values {
			x[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return nil
}

// String summarises the space. It is the space's signature and its only
// encoding: harmony's join check, measuredb's binding and WAL header, and
// PHSYNC1's hello compare it, so equal signatures must mean equal spaces.
// Bounds and a discrete parameter's menu, after its bounds in braces, print
// as fmt's %g (strconv's shortest 'g' form), which tells every non-NaN
// float apart by its bits. No name holds a comma, so ", " appears only
// between parameters, and each parameter parses back from its right end,
// since no number or kind name holds a bracket, a brace or a colon.
func (s *Space) String() string {
	b := make([]byte, 0, 32*len(s.params)+8)
	b = append(b, "space{"...)
	for i, p := range s.params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, p.Name...)
		b = append(b, ':')
		b = append(b, p.Kind.String()...)
		b = append(b, '[')
		b = strconv.AppendFloat(b, p.Lower, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Upper, 'g', -1, 64)
		b = append(b, ']')
		if p.Kind == Discrete {
			b = append(b, '{')
			for j, v := range p.Values {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
			b = append(b, '}')
		}
	}
	b = append(b, '}')
	return string(b)
}

// SameParams reports whether two parameter lists are equal field by field,
// with floats compared by bits. Equal lists build equal spaces.
func SameParams(a, b []Parameter) bool {
	return slices.EqualFunc(a, b, func(p, q Parameter) bool {
		return p.Name == q.Name && p.Kind == q.Kind && sameBits(p.Lower, q.Lower) &&
			sameBits(p.Upper, q.Upper) && slices.EqualFunc(p.Values, q.Values, sameBits)
	})
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
