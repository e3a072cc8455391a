package objective

import (
	"fmt"
	"math"
	"sort"

	"paratune/internal/space"
)

// maxGridCells bounds the dense cell table a KNN allocates (64 MiB of
// int32). NewKNN rejects larger spaces.
const maxGridCells = 1 << 24

// Per-query scratch that fits these bounds lives on the stack; larger
// neighbour counts or grids allocate it per query.
const (
	stackK    = 16  // neighbours
	stackAxis = 256 // admissible values summed over all axes
)

// KNN is the paper's §6 replay interpolation: a query is the weighted average
// of the k stored points nearest to it on range-normalised coordinates, with
// inverse-squared-distance weights. It backs DB (the GS2 surrogate).
//
// It stores values on the grid of a fully discrete space in three flat
// tables: values in insertion order, the insertion index of each cell, and
// the cell of each insertion index. A stored point is its cell's axis
// values, so no coordinates are kept. A query walks the grid outward from
// itself axis by axis, pruning on partial distances; a query with a
// non-finite coordinate scans every stored cell. Both searches select the
// same neighbours in the same order — the k smallest by (squared distance,
// insertion index), distances summed over axes in order from the same
// per-axis terms — so results never depend on which one ran.
//
// A populated KNN is safe for concurrent Interpolate calls; Add is not.
type KNN struct {
	k     int
	scale []float64 // per-parameter range; 1 for a zero range
	vals  []float64 // stored values in insertion order
	at    []int32   // cell of each insertion index

	axes    [][]float64 // admissible values of each parameter, ascending
	integer []bool      // axis j is an Integer parameter: position is v−Lower
	stride  []int       // cell-table stride of each axis
	off     []int       // start of each axis in the per-query term buffer; len dim+1
	cells   []int32     // insertion index of each cell, −1 when not stored
}

// NewKNN returns an empty interpolator over s averaging k neighbours
// (k <= 0 defaults to 4). s must be fully discrete with at most
// maxGridCells grid points.
func NewKNN(s *space.Space, k int) (*KNN, error) {
	size := 1.0 // a float64 product cannot wrap around
	for j := 0; j < s.Dim(); j++ {
		switch p := s.Param(j); p.Kind {
		case space.Continuous:
			size = math.Inf(1)
		case space.Integer:
			size *= p.Range() + 1
		default:
			size *= float64(len(p.Values))
		}
	}
	if size > maxGridCells {
		return nil, fmt.Errorf("objective: k-NN requires a fully discrete space of at most %d grid points, have %v", maxGridCells, s)
	}
	if k <= 0 {
		k = 4
	}
	dim := s.Dim()
	n := &KNN{
		k: k, scale: make([]float64, dim),
		axes: make([][]float64, dim), integer: make([]bool, dim),
		stride: make([]int, dim), off: make([]int, dim+1),
	}
	cells := 1
	for j := dim - 1; j >= 0; j-- {
		p := s.Param(j)
		if n.scale[j] = p.Range(); n.scale[j] == 0 {
			n.scale[j] = 1
		}
		n.axes[j] = axisValues(p)
		n.integer[j] = p.Kind == space.Integer
		n.stride[j] = cells
		cells *= len(n.axes[j])
	}
	for j, ax := range n.axes {
		n.off[j+1] = n.off[j] + len(ax)
	}
	n.cells = make([]int32, cells)
	for i := range n.cells {
		n.cells[i] = -1
	}
	return n, nil
}

// Len returns the number of stored points.
func (n *KNN) Len() int { return len(n.vals) }

// Add stores value v at p, overwriting the value of an already stored cell,
// and reports whether p is a grid point; when it is not, nothing is stored.
// p is not retained.
func (n *KNN) Add(p space.Point, v float64) bool {
	switch c := n.cell(p); {
	case c < 0:
		return false
	case n.cells[c] >= 0:
		n.vals[n.cells[c]] = v
	default:
		n.cells[c] = int32(len(n.vals))
		n.vals = append(n.vals, v)
		n.at = append(n.at, int32(c))
	}
	return true
}

// cell returns the cell-table index of p, or −1 when p is not a grid point:
// wrong dimension, or a coordinate that is not bit-identical to one of its
// axis values (so NaN, −0 for 0 and off-grid values all miss, exactly as a
// formatted-key lookup would).
func (n *KNN) cell(p space.Point) int {
	if len(p) != len(n.axes) {
		return -1
	}
	c := 0
	for j, v := range p {
		ax := n.axes[j]
		var a int
		if n.integer[j] {
			if !(v >= ax[0] && v <= ax[len(ax)-1]) {
				return -1
			}
			a = int(v - ax[0])
		} else if a = sort.SearchFloat64s(ax, v); a == len(ax) {
			return -1
		}
		if math.Float64bits(ax[a]) != math.Float64bits(v) {
			return -1
		}
		c += a * n.stride[j]
	}
	return c
}

// appendPoint appends to dst the point stored at insertion index i: its
// cell's axis values, which are the stored coordinates bit for bit.
func (n *KNN) appendPoint(dst space.Point, i int) space.Point {
	c := int(n.at[i])
	for j, st := range n.stride {
		dst = append(dst, n.axes[j][c/st])
		c %= st
	}
	return dst
}

// lookup returns the value stored at exactly p, if any.
func (n *KNN) lookup(p space.Point) (float64, bool) {
	c := n.cell(p)
	if c < 0 || n.cells[c] < 0 {
		return 0, false
	}
	return n.vals[n.cells[c]], true
}

// Interpolate returns the weighted average v of x's k nearest stored points
// and the total weight den behind it. A neighbour at zero distance has
// infinite weight: its value is returned alone, with den = +Inf. den = 0
// means nothing is stored (v = +Inf) or every neighbour is infinitely far
// (v is NaN).
func (n *KNN) Interpolate(x space.Point) (v, den float64) {
	if len(n.vals) == 0 {
		return math.Inf(1), 0
	}
	k := min(n.k, len(n.vals))
	var buf [stackK]neighbour
	best := buf[:]
	if k > len(buf) {
		best = make([]neighbour, k)
	}
	top := topK{c: best[:k]}
	if n.onGridQuery(x) {
		n.walkGrid(x, &top)
	} else {
		n.scan(x, &top)
	}
	var num float64
	for _, c := range top.c[:top.n] {
		if c.d2 == 0 {
			return n.vals[c.i], math.Inf(1)
		}
		w := 1 / c.d2 // inverse squared distance weighting
		num += w * n.vals[c.i]
		den += w
	}
	return num / den, den
}

// onGridQuery reports whether the grid walk can answer x: the right
// dimension and every coordinate finite, so partial distances are ordered.
func (n *KNN) onGridQuery(x space.Point) bool {
	if len(x) != len(n.axes) {
		return false
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// term is one axis's contribution to a squared distance. The conversion
// rounds the product, so no platform fuses it into the following sum and
// the grid walk and the scan add identical terms.
func term(p, x, scale float64) float64 {
	dd := (p - x) / scale
	return float64(dd * dd)
}

// scan offers every stored point in insertion order, reading each
// coordinate from its cell.
func (n *KNN) scan(x space.Point, top *topK) {
	for i, c := range n.at {
		var d2 float64
		rem := int(c)
		for j, st := range n.stride {
			d2 += term(n.axes[j][rem/st], x[j], n.scale[j])
			rem %= st
		}
		top.offer(d2, i)
	}
}

// walkGrid offers the stored cells that can still enter the top k, visiting
// each axis's values in ascending order of their distance term.
func (n *KNN) walkGrid(x space.Point, top *topK) {
	var tb [stackAxis]float64
	var ob [stackAxis]int32
	terms, order := tb[:], ob[:]
	if total := n.off[len(n.axes)]; total > len(tb) {
		terms, order = make([]float64, total), make([]int32, total)
	}
	for j, ax := range n.axes {
		t, o := terms[n.off[j]:n.off[j+1]], order[n.off[j]:n.off[j+1]]
		for a, v := range ax {
			t[a] = term(v, x[j], n.scale[j])
		}
		// Terms fall toward x and rise away from it (rounding is monotone),
		// so merging the two sides outward from x sorts them.
		r := sort.SearchFloat64s(ax, x[j])
		l := r - 1
		for i := range o {
			if r == len(ax) || (l >= 0 && t[l] <= t[r]) {
				o[i] = int32(l)
				l--
			} else {
				o[i] = int32(r)
				r++
			}
		}
	}
	w := gridWalk{knn: n, terms: terms, order: order, top: top}
	w.walk(0, 0, 0)
}

type gridWalk struct {
	knn   *KNN
	terms []float64
	order []int32
	top   *topK
}

// walk extends partial, the squared distance over axes before j, along axis j
// in ascending term order. Once an extension strictly exceeds the k-th best
// it returns: later terms on the axis are no smaller, and adding
// non-negative terms never decreases a floating-point sum, so nothing
// further along can enter the top k. Ties are visited, since a tie with a
// lower insertion index still wins.
func (w *gridWalk) walk(j int, partial float64, cell int) {
	n := w.knn
	lo := n.off[j]
	last := j == len(n.axes)-1
	for _, a := range w.order[lo:n.off[j+1]] {
		d2 := partial + w.terms[lo+int(a)]
		if w.top.full() && d2 > w.top.worst() {
			return
		}
		c := cell + int(a)*n.stride[j]
		if !last {
			w.walk(j+1, d2, c)
		} else if i := n.cells[c]; i >= 0 {
			w.top.offer(d2, int(i))
		}
	}
}

type neighbour struct {
	d2 float64
	i  int // insertion index
}

// topK keeps the best len(c) neighbours offered so far in c[:n], ordered by
// (squared distance, insertion index).
type topK struct {
	c []neighbour
	n int
}

func (t *topK) full() bool     { return t.n == len(t.c) }
func (t *topK) worst() float64 { return t.c[len(t.c)-1].d2 }

// offer inserts (d2, i) if it beats the current k-th best. A scan offers
// indices in increasing order, so this is exactly a stable insertion sort
// that admits only strictly nearer points; with NaN distances nothing moves.
func (t *topK) offer(d2 float64, i int) {
	j := t.n
	if t.full() {
		if !nearer(d2, i, t.c[j-1]) {
			return
		}
		j--
	} else {
		t.n++
	}
	for ; j > 0 && nearer(d2, i, t.c[j-1]); j-- {
		t.c[j] = t.c[j-1]
	}
	t.c[j] = neighbour{d2, i}
}

func nearer(d2 float64, i int, c neighbour) bool {
	return d2 < c.d2 || d2 == c.d2 && i < c.i
}
