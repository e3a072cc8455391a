package objective

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"paratune/internal/dist"
	"paratune/internal/par"
	"paratune/internal/space"
)

// GS2Space returns the three-parameter tuning space of §4.3: ntheta (grid
// points per 2π field-line segment), negrid (energy grid), and nodes (the
// node-count allocation, powers of two up to the 64-node cluster).
func GS2Space() *space.Space {
	return space.MustNew(
		space.IntParam("ntheta", 8, 64),
		space.IntParam("negrid", 4, 32),
		space.DiscreteParam("nodes", 1, 2, 4, 8, 16, 32, 64),
	)
}

// GS2Config controls surrogate-database generation.
type GS2Config struct {
	// Seed drives every random choice; equal seeds give identical databases.
	Seed int64
	// Coverage is the fraction of grid points stored in the database,
	// mirroring the paper's incomplete measurement database ("the data base
	// does not contain all possible combinations"). 1 stores everything.
	Coverage float64
	// Neighbors is the number of nearest stored points averaged for off-grid
	// estimates (default 4).
	Neighbors int
	// RuggednessAmp scales the multi-minimum ripple component (default 0.35).
	RuggednessAmp float64
	// JitterAmp scales deterministic per-point irregularity (default 0.15).
	JitterAmp float64
}

func (c *GS2Config) setDefaults() {
	if c.Coverage <= 0 || c.Coverage > 1 {
		c.Coverage = 0.7
	}
	if c.Neighbors <= 0 {
		c.Neighbors = 4
	}
	if c.RuggednessAmp == 0 {
		c.RuggednessAmp = 0.35
	}
	if c.JitterAmp == 0 {
		c.JitterAmp = 0.15
	}
}

// gs2Model is the analytic generator behind the surrogate: a strong-scaling
// compute term, a communication term that grows with the node count, and
// seeded ripple/jitter components that carve multiple local minima, matching
// the qualitative structure of Fig. 8 ("not smooth and contains multiple
// local minimums"). It is the Function GS2Surface returns.
type gs2Model struct {
	s                      *space.Space
	seed                   int64
	rippleAmp, jitterAmp   float64
	phase1, phase2, phase3 float64
}

func newGS2Model(cfg GS2Config) *gs2Model {
	rng := dist.NewRNG(cfg.Seed)
	return &gs2Model{
		s:         GS2Space(),
		seed:      cfg.Seed,
		rippleAmp: cfg.RuggednessAmp,
		jitterAmp: cfg.JitterAmp,
		phase1:    rng.Float64() * 2 * math.Pi,
		phase2:    rng.Float64() * 2 * math.Pi,
		phase3:    rng.Float64() * 2 * math.Pi,
	}
}

// GS2Surface returns the analytic surface behind the surrogate database:
// GenerateGS2 with the same Seed, RuggednessAmp and JitterAmp stores exactly
// this function's value at every grid point it keeps. It evaluates every
// point of the space directly, with no database to build.
func GS2Surface(cfg GS2Config) Function {
	cfg.setDefaults()
	return newGS2Model(cfg)
}

// Eval implements Function: the per-time-step cost (seconds) for (ntheta,
// negrid, nodes).
func (m *gs2Model) Eval(x space.Point) float64 {
	ntheta, negrid, nodes := x[0], x[1], x[2]
	work := ntheta * negrid // grid points ∝ compute per step
	// Strong-scaling compute: parallel efficiency decays with node count.
	compute := 0.004 * work / math.Pow(nodes, 0.82)
	// Communication: per-step exchanges grow with node count and surface
	// size; log factor models tree reductions over Myrinet.
	comm := 0.012 * math.Log2(nodes+1) * math.Sqrt(work) / 8
	// Load imbalance penalty when the grid does not divide across nodes.
	rem := math.Mod(ntheta, nodes)
	imbalance := 0.02 * rem / math.Max(nodes, 1)
	// Marginal parameter values perform poorly ([3], §6.1): too-coarse or
	// too-fine grids are numerically wasteful and extreme node counts pay
	// either serialisation or communication saturation. A quartic edge
	// penalty per normalised coordinate (node count on a log2 scale) makes
	// both extremes of every parameter expensive.
	uTheta := (ntheta - 8) / 56
	uGrid := (negrid - 4) / 28
	uNodes := math.Log2(nodes) / 6
	edge := math.Pow(2*uTheta-1, 4) + math.Pow(2*uGrid-1, 4) + math.Pow(2*uNodes-1, 4)
	base := 0.5 + compute + comm + imbalance + 0.35*edge
	// Ripples: interacting periodic terms create many local minima.
	rip := m.rippleAmp * (math.Sin(ntheta/3.1+m.phase1) * math.Cos(negrid/2.3+m.phase2) *
		(1 + 0.5*math.Sin(math.Log2(nodes+1)*2.9+m.phase3)))
	// Deterministic per-point jitter: same point, same value, every run.
	jit := m.jitterAmp * (pointHash01(m.seed, x) - 0.5)
	v := base + rip + jit
	if v < 0.05 {
		v = 0.05
	}
	return v
}

// Space implements Function.
func (m *gs2Model) Space() *space.Space { return m.s }

func (m *gs2Model) String() string { return fmt.Sprintf("gs2-surface(seed=%d)", m.seed) }

// pointHash01 maps (seed, point) to a deterministic value in [0, 1): the
// 64-bit FNV-1a hash of "seed:key", key being x.Key().
func pointHash01(seed int64, x space.Point) float64 {
	var buf [128]byte
	b := strconv.AppendInt(buf[:0], seed, 10)
	b = x.AppendKey(append(b, ':'))
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-1a prime
	}
	return float64(h%1e9) / 1e9
}

// DB is a performance database over a fully discrete space: exact hits are
// looked up in a dense cell table, and missing points are estimated by the
// KNN interpolation over the stored points — the paper's replay mechanism.
type DB struct {
	s   *space.Space
	knn *KNN
}

// GenerateGS2 builds the surrogate GS2 database. Which cells are kept is
// decided serially, in Enumerate order, by the seed's RNG; the kept cells are
// then evaluated in parallel into one flat coordinate array and stored in
// that same order.
func GenerateGS2(cfg GS2Config) *DB {
	cfg.setDefaults()
	model := newGS2Model(cfg)
	s := model.s
	dim := s.Dim()
	cells, _ := s.GridSize()
	coords := make([]float64, 0, cells*dim)
	rng := dist.NewRNG(cfg.Seed + 1)
	center := s.Center()
	_ = s.Enumerate(func(p space.Point) {
		// Always keep the centre (the tuner's start region); drop others
		// with probability 1-coverage.
		if !p.Equal(center) && rng.Float64() > cfg.Coverage {
			return
		}
		coords = append(coords, p...)
	})
	n := len(coords) / dim
	pt := func(i int) space.Point { return coords[i*dim : (i+1)*dim : (i+1)*dim] }
	vals := make([]float64, n)
	par.For(n, func(i int) { vals[i] = model.Eval(pt(i)) })
	db := &DB{s: s, knn: NewKNN(s, cfg.Neighbors)}
	db.knn.pts = make([]space.Point, 0, n)
	db.knn.vals = make([]float64, 0, n)
	for i, v := range vals {
		db.knn.Add(pt(i), v)
	}
	return db
}

// NewDB builds an empty database over a fully discrete space for manual
// population (and for loading saved databases). neighbors <= 0 defaults to 4.
func NewDB(s *space.Space, neighbors int) (*DB, error) {
	knn := NewKNN(s, neighbors)
	if knn.cells == nil {
		return nil, fmt.Errorf("objective: DB requires a fully discrete space of at most %d grid points, have %v", maxGridCells, s)
	}
	return &DB{s: s, knn: knn}, nil
}

// Add records a measurement for p, overwriting any earlier one. p must be a
// grid point of the space: every coordinate bit-identical to an admissible
// value (so -0 does not stand for 0). Add panics otherwise; LoadDB reports
// such points as errors instead.
func (db *DB) Add(p space.Point, v float64) {
	if db.knn.cell(p) < 0 {
		panic(fmt.Sprintf("objective: DB.Add of %v, which is not a grid point of %v", p, db.s))
	}
	db.knn.Add(p.Clone(), v)
}

// Len returns the number of stored points.
func (db *DB) Len() int { return db.knn.Len() }

// Lookup returns the stored value for p, if present. It takes O(dim) time
// and does not allocate.
func (db *DB) Lookup(p space.Point) (float64, bool) { return db.knn.lookup(p) }

// Eval implements Function: exact lookup, else the weighted average of the
// closest stored neighbours (inverse-distance weights on range-normalised
// coordinates).
func (db *DB) Eval(x space.Point) float64 {
	if v, ok := db.knn.lookup(x); ok {
		return v
	}
	v, _ := db.knn.Interpolate(x)
	return v
}

// Space implements Function.
func (db *DB) Space() *space.Space { return db.s }

func (db *DB) String() string { return fmt.Sprintf("gs2-db(%d points)", db.knn.Len()) }

// Min returns the best stored point and value.
func (db *DB) Min() (space.Point, float64, error) {
	vals := db.knn.vals
	if len(vals) == 0 {
		return nil, 0, errors.New("objective: empty database")
	}
	bi := 0
	for i, v := range vals {
		if v < vals[bi] {
			bi = i
		}
	}
	return db.knn.pts[bi].Clone(), vals[bi], nil
}

// Slice evaluates the surface over the full grids of parameters xi and yi
// with the remaining parameter fixed to fixedVal, producing the Fig. 8 data:
// rows indexed by xi values, columns by yi values.
func (db *DB) Slice(xi, yi int, fixedVal float64) (xs, ys []float64, z [][]float64, err error) {
	n := db.s.Dim()
	if n != 3 {
		return nil, nil, nil, fmt.Errorf("objective: Slice needs a 3-parameter space, have %d", n)
	}
	if xi == yi || xi < 0 || yi < 0 || xi >= n || yi >= n {
		return nil, nil, nil, fmt.Errorf("objective: bad slice axes %d, %d", xi, yi)
	}
	fixed := 3 - xi - yi
	xs = axisValues(db.s.Param(xi))
	ys = axisValues(db.s.Param(yi))
	z = make([][]float64, len(xs))
	pt := make(space.Point, 3)
	pt[fixed] = fixedVal
	for i, xv := range xs {
		z[i] = make([]float64, len(ys))
		for j, yv := range ys {
			pt[xi], pt[yi] = xv, yv
			z[i][j] = db.Eval(pt)
		}
	}
	return xs, ys, z, nil
}

func axisValues(p space.Parameter) []float64 {
	switch p.Kind {
	case space.Integer:
		vs := make([]float64, 0, int(p.Range())+1)
		for v := p.Lower; v <= p.Upper; v++ {
			vs = append(vs, v)
		}
		return vs
	case space.Discrete:
		return append([]float64(nil), p.Values...)
	default:
		// Sample 33 points across a continuous range.
		vs := make([]float64, 0, 33)
		for i := 0; i <= 32; i++ {
			vs = append(vs, p.Lower+float64(i)/32*p.Range())
		}
		return vs
	}
}

// Save writes the database as CSV: one header row with parameter names plus
// "time", then one row per stored point.
func (db *DB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s,time\n", strings.Join(db.s.Names(), ",")); err != nil {
		return err
	}
	for i, p := range db.knn.pts {
		cols := make([]string, len(p)+1)
		for j, v := range p {
			cols[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		cols[len(p)] = strconv.FormatFloat(db.knn.vals[i], 'g', -1, 64)
		if _, err := fmt.Fprintln(bw, strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadDB reads a database saved by Save, validating each point against s.
func LoadDB(s *space.Space, neighbors int, r io.Reader) (*DB, error) {
	db, err := NewDB(s, neighbors)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 { // header
			continue
		}
		cols := strings.Split(text, ",")
		if len(cols) != s.Dim()+1 {
			return nil, fmt.Errorf("objective: line %d has %d columns, want %d", line, len(cols), s.Dim()+1)
		}
		p := make(space.Point, s.Dim())
		for j := 0; j < s.Dim(); j++ {
			v, err := strconv.ParseFloat(cols[j], 64)
			if err != nil {
				return nil, fmt.Errorf("objective: line %d column %d: %v", line, j, err)
			}
			p[j] = v
		}
		v, err := strconv.ParseFloat(cols[s.Dim()], 64)
		if err != nil {
			return nil, fmt.Errorf("objective: line %d time column: %v", line, err)
		}
		if db.knn.cell(p) < 0 {
			return nil, fmt.Errorf("objective: line %d point %v not admissible in %v", line, p, s)
		}
		db.knn.Add(p, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}
