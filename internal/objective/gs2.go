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

// gs2Neighbors is the number of nearest stored points averaged for off-grid
// estimates.
const gs2Neighbors = 4

// GS2Config controls surrogate-database generation.
type GS2Config struct {
	// Seed drives every random choice; equal seeds give identical databases.
	Seed int64
	// Coverage is the fraction of grid points stored in the database,
	// mirroring the paper's incomplete measurement database ("the data base
	// does not contain all possible combinations"). 1 stores everything.
	Coverage float64
	// RuggednessAmp scales the multi-minimum ripple component (default 0.35).
	RuggednessAmp float64
	// JitterAmp scales deterministic per-point irregularity (default 0.15).
	JitterAmp float64
}

func (c *GS2Config) setDefaults() {
	if c.Coverage <= 0 || c.Coverage > 1 {
		c.Coverage = 0.7
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
// negrid, nodes). It computes the per-axis terms GenerateGS2 tables and
// combines them with the same step, so both evaluate one formula.
func (m *gs2Model) Eval(x space.Point) float64 {
	ntheta, negrid, nodes := x[0], x[1], x[2]
	t, g, n := m.thetaTerms(ntheta), m.gridTerms(negrid), m.nodesTerms(nodes)
	return m.combine(ntheta, negrid, &t, &g, &n, math.Mod(ntheta, nodes))
}

// The terms of Eval that depend on one axis value. GenerateGS2 computes them
// once per grid value; Eval computes them for its one point.
type (
	thetaTerms struct {
		edge, sin float64
		hash      uint64 // FNV-1a state after "seed:ntheta,"
	}
	gridTerms struct {
		edge, cos float64
		key       axisKey // "negrid,"
	}
	nodesTerms struct {
		pow, logc, max, edge, rip float64
		key                       axisKey // "nodes"
	}
)

func (m *gs2Model) thetaTerms(ntheta float64) thetaTerms {
	uTheta := (ntheta - 8) / 56
	var buf [64]byte
	prefix := append(strconv.AppendInt(buf[:0], m.seed, 10), ':')
	prefix = append(space.Point{ntheta}.AppendKey(prefix), ',')
	return thetaTerms{
		edge: math.Pow(2*uTheta-1, 4),
		sin:  math.Sin(ntheta/3.1 + m.phase1),
		hash: fnv1a(fnvOffset, prefix),
	}
}

func (m *gs2Model) gridTerms(negrid float64) gridTerms {
	uGrid := (negrid - 4) / 28
	return gridTerms{
		edge: math.Pow(2*uGrid-1, 4),
		cos:  math.Cos(negrid/2.3 + m.phase2),
		key:  newAxisKey(negrid, true),
	}
}

func (m *gs2Model) nodesTerms(nodes float64) nodesTerms {
	uNodes := math.Log2(nodes) / 6
	return nodesTerms{
		pow:  math.Pow(nodes, 0.82),
		logc: 0.012 * math.Log2(nodes+1),
		max:  math.Max(nodes, 1),
		edge: math.Pow(2*uNodes-1, 4),
		rip:  1 + 0.5*math.Sin(math.Log2(nodes+1)*2.9+m.phase3),
		key:  newAxisKey(nodes, false),
	}
}

// combine is the surface formula over one point's per-axis terms; rem is
// Mod(ntheta, nodes).
func (m *gs2Model) combine(ntheta, negrid float64, t *thetaTerms, g *gridTerms, n *nodesTerms, rem float64) float64 {
	work := ntheta * negrid // grid points ∝ compute per step
	// Strong-scaling compute: parallel efficiency decays with node count.
	compute := 0.004 * work / n.pow
	// Communication: per-step exchanges grow with node count and surface
	// size; log factor models tree reductions over Myrinet.
	comm := n.logc * math.Sqrt(work) / 8
	// Load imbalance penalty when the grid does not divide across nodes.
	imbalance := 0.02 * rem / n.max
	// Marginal parameter values perform poorly ([3], §6.1): too-coarse or
	// too-fine grids are numerically wasteful and extreme node counts pay
	// either serialisation or communication saturation. A quartic edge
	// penalty per normalised coordinate (node count on a log2 scale) makes
	// both extremes of every parameter expensive.
	edge := t.edge + g.edge + n.edge
	base := 0.5 + compute + comm + imbalance + 0.35*edge
	// Ripples: interacting periodic terms create many local minima.
	rip := m.rippleAmp * (t.sin * g.cos * n.rip)
	// Deterministic per-point jitter: same point, same value, every run. The
	// hash is the 64-bit FNV-1a of "seed:key", key being the point's Key.
	h := fnv1a(fnv1a(t.hash, g.key.bytes()), n.key.bytes())
	jit := m.jitterAmp * (float64(h%1e9)/1e9 - 0.5)
	v := base + rip + jit
	if v < 0.05 {
		v = 0.05
	}
	return v
}

// Space implements Function.
func (m *gs2Model) Space() *space.Space { return m.s }

func (m *gs2Model) String() string { return fmt.Sprintf("gs2-surface(seed=%d)", m.seed) }

// axisKey holds one coordinate's bytes in space.Point's Key, followed by
// the separator when the coordinate is not the last. Any float64 formats in
// at most 24 bytes.
type axisKey struct {
	b [25]byte
	n uint8
}

func newAxisKey(v float64, sep bool) axisKey {
	var k axisKey
	b := space.Point{v}.AppendKey(k.b[:0])
	if sep {
		b = append(b, ',')
	}
	k.n = uint8(copy(k.b[:], b))
	return k
}

func (k *axisKey) bytes() []byte { return k.b[:k.n] }

const fnvOffset = uint64(14695981039346656037) // FNV-1a offset basis

// fnv1a folds b into the 64-bit FNV-1a state h.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-1a prime
	}
	return h
}

// DB is a performance database over a fully discrete space: exact hits are
// looked up in a dense cell table, and missing points are estimated by the
// KNN interpolation over the stored points — the paper's replay mechanism.
type DB struct {
	s   *space.Space
	knn *KNN
}

// GenerateGS2 builds the surrogate GS2 database. Which cells are kept is
// decided serially, in Enumerate order, by the seed's RNG. Every per-axis
// term of the surface is tabled once per grid value (and Mod(ntheta, nodes)
// once per pair), so each kept cell only combines tabled terms; the cells are
// evaluated serially, as the pool cost more than the ~100 ns of work per
// cell. Enumerate order is cell-table order, so the loop counter is the cell
// index and the build writes the KNN's flat tables directly.
func GenerateGS2(cfg GS2Config) *DB {
	cfg.setDefaults()
	model := newGS2Model(cfg)
	s := model.s
	knn, _ := NewKNN(s, gs2Neighbors) // GS2Space is an 11,571-cell grid, which NewKNN accepts
	thetas, grids, nodes := knn.axes[0], knn.axes[1], knn.axes[2]
	ts := make([]thetaTerms, len(thetas))
	rems := make([]float64, len(thetas)*len(nodes))
	for i, v := range thetas {
		ts[i] = model.thetaTerms(v)
		for j, n := range nodes {
			rems[i*len(nodes)+j] = math.Mod(v, n)
		}
	}
	gs := make([]gridTerms, len(grids))
	for i, v := range grids {
		gs[i] = model.gridTerms(v)
	}
	ns := make([]nodesTerms, len(nodes))
	for i, v := range nodes {
		ns[i] = model.nodesTerms(v)
	}

	knn.vals = make([]float64, 0, len(knn.cells))
	knn.at = make([]int32, 0, len(knn.cells))
	rng := dist.NewRNG(cfg.Seed + 1)
	center := knn.cell(s.Center())
	c := 0
	for ti, ntheta := range thetas {
		for gi, negrid := range grids {
			for ni := range nodes {
				// Always keep the centre (the tuner's start region); drop
				// others with probability 1-coverage.
				if c == center || rng.Float64() <= cfg.Coverage {
					knn.cells[c] = int32(len(knn.vals))
					knn.at = append(knn.at, int32(c))
					knn.vals = append(knn.vals, model.combine(ntheta, negrid, &ts[ti], &gs[gi], &ns[ni], rems[ti*len(nodes)+ni]))
				}
				c++
			}
		}
	}
	return &DB{s: s, knn: knn}
}

// NewDB builds an empty database over a fully discrete space for manual
// population (and for loading saved databases). neighbors <= 0 defaults to 4.
func NewDB(s *space.Space, neighbors int) (*DB, error) {
	knn, err := NewKNN(s, neighbors)
	if err != nil {
		return nil, err
	}
	return &DB{s: s, knn: knn}, nil
}

// Add records a measurement for p, overwriting any earlier one. p must be a
// grid point of the space: every coordinate bit-identical to an admissible
// value (so -0 does not stand for 0). Add panics otherwise; LoadDB reports
// such points as errors instead.
func (db *DB) Add(p space.Point, v float64) {
	if !db.knn.Add(p, v) {
		panic(fmt.Sprintf("objective: DB.Add of %v, which is not a grid point of %v", p, db.s))
	}
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
	return db.knn.appendPoint(nil, bi), vals[bi], nil
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
	var p space.Point // one stored point, then its value
	var line []byte
	for i, v := range db.knn.vals {
		line = line[:0]
		p = append(db.knn.appendPoint(p[:0], i), v)
		for _, c := range p {
			line = append(strconv.AppendFloat(line, c, 'g', -1, 64), ',')
		}
		line[len(line)-1] = '\n'
		if _, err := bw.Write(line); err != nil {
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
	p := make(space.Point, s.Dim())
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
		for j := range p {
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
		if !db.knn.Add(p, v) {
			return nil, fmt.Errorf("objective: line %d point %v not admissible in %v", line, p, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}
