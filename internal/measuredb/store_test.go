package measuredb

import (
	"math"
	"sync"
	"testing"

	"paratune/internal/event"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// aggregate is p's aggregate over its raw observations, as ForEach reports
// it; false when p was never observed.
func aggregate(s *Store, p space.Point) (Agg, bool) {
	obs, ok, _ := s.AppendObsSource(nil, p, 0)
	if !ok {
		return Agg{}, false
	}
	return aggOf(p.Clone(), obs), true
}

func TestObserveAggregate(t *testing.T) {
	s := NewMemory(Options{Seed: 1})
	p := space.Point{1, 2, 3}
	for _, v := range []float64{5, 3, 4, 8} {
		s.Observe(p, v)
	}
	a, ok := aggregate(s, p)
	if !ok {
		t.Fatal("aggregate: configuration not found")
	}
	if a.Count != 4 || a.Min != 3 {
		t.Fatalf("aggregate = count %d min %g, want count 4 min 3", a.Count, a.Min)
	}
	if a.Mean != 5 {
		t.Fatalf("Mean = %g, want 5", a.Mean)
	}
	if _, ok := aggregate(s, space.Point{9, 9, 9}); ok {
		t.Fatal("aggregate found a never-observed configuration")
	}
}

func TestObserveIgnoresInvalidValues(t *testing.T) {
	s := NewMemory(Options{})
	p := space.Point{1}
	s.Observe(p, math.NaN())
	s.Observe(p, math.Inf(1))
	s.Observe(p, -3)
	if _, ok := aggregate(s, p); ok {
		t.Fatal("invalid values were recorded")
	}
	s.Observe(p, 2)
	if a, _ := aggregate(s, p); a.Count != 1 {
		t.Fatalf("Count = %d, want 1", a.Count)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Observe(space.Point{1}, 2) // must not panic
}

func TestAppendObsOrderAndCap(t *testing.T) {
	s := NewMemory(Options{})
	p := space.Point{7, 7}
	for _, v := range []float64{9, 1, 4} {
		s.Observe(p, v)
	}
	obs, ok, _ := s.AppendObsSource(nil, p, 0)
	if !ok || len(obs) != 3 {
		t.Fatalf("AppendObsSource(all) = %v, %v", obs, ok)
	}
	if obs[0] != 9 || obs[1] != 1 || obs[2] != 4 {
		t.Fatalf("observations out of arrival order: %v", obs)
	}
	obs, _, _ = s.AppendObsSource(obs[:0], p, 2)
	if len(obs) != 2 || obs[0] != 9 || obs[1] != 1 {
		t.Fatalf("AppendObsSource(max=2) = %v, want first two in arrival order", obs)
	}
	if _, ok, _ := s.AppendObsSource(nil, space.Point{0, 0}, 0); ok {
		t.Fatal("AppendObsSource found a never-observed configuration")
	}
}

// Distinct float vectors must never collide: the key is the raw bit pattern,
// not a formatted string.
func TestKeyInjective(t *testing.T) {
	s := NewMemory(Options{})
	a := space.Point{1, 2}
	b := space.Point{1.0000000000000002, 2} // next float after 1
	s.Observe(a, 10)
	s.Observe(b, 20)
	if cfgs, _ := s.Stats(); cfgs != 2 {
		t.Fatalf("Stats configs = %d, want 2 distinct configurations", cfgs)
	}
	av, _ := aggregate(s, a)
	bv, _ := aggregate(s, b)
	if av.Min != 10 || bv.Min != 20 {
		t.Fatalf("adjacent floats collided: %g %g", av.Min, bv.Min)
	}
}

func TestForEachSortedDeterministic(t *testing.T) {
	s := NewMemory(Options{})
	// Insert in scrambled order; visits must come back sorted by key bytes,
	// which for non-negative floats is ascending numeric order.
	for _, v := range []float64{5, 1, 4, 2, 3} {
		s.Observe(space.Point{v}, v*10)
	}
	var got []float64
	s.ForEach(func(a Agg) { got = append(got, a.Point[0]) })
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("ForEach order = %v, want ascending", got)
		}
	}
	cfgs, obs := s.Stats()
	if cfgs != 5 || obs != 5 {
		t.Fatalf("Stats = (%d, %d), want (5, 5)", cfgs, obs)
	}
}

func TestConcurrentObserve(t *testing.T) {
	s := NewMemory(Options{})
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := space.Point{float64(i % 10), float64(g % 3)}
				s.Observe(p, float64(i))
				s.AppendObsSource(nil, p, 4)
			}
		}(g)
	}
	wg.Wait()
	if _, obs := s.Stats(); obs != goroutines*per {
		t.Fatalf("Stats observations = %d, want %d", obs, goroutines*per)
	}
}

// countingEval is a fake inner evaluator standing in for the cluster: it
// returns min(noisy obs) like a live min-of-K loop and writes the raw
// observations into the store, as the cluster's observation sink would.
type countingEval struct {
	store *Store
	k     int
	calls int
	pts   int
}

func (c *countingEval) Eval(points []space.Point) ([]float64, error) {
	c.calls++
	c.pts += len(points)
	out := make([]float64, len(points))
	for i, p := range points {
		best := math.Inf(1)
		for j := 0; j < c.k; j++ {
			v := p[0]*10 + float64(j) // deterministic "noise" by sample index
			c.store.Observe(p, v)
			if v < best {
				best = v
			}
		}
		out[i] = best
	}
	return out, nil
}

func TestMemoHitMiss(t *testing.T) {
	s := NewMemory(Options{})
	est, err := sample.NewMinOfK(3)
	if err != nil {
		t.Fatal(err)
	}
	rec := &event.Memory{}
	inner := &countingEval{store: s, k: est.K()}
	m := NewMemo(inner, s, est, rec, nil)

	pts := []space.Point{{1}, {2}, {3}}
	ys1, err := m.Eval(pts)
	if err != nil {
		t.Fatal(err)
	}
	if inner.pts != 3 || m.Misses() != 3 || m.Hits() != 0 {
		t.Fatalf("first pass: inner %d misses %d hits %d, want 3/3/0", inner.pts, m.Misses(), m.Hits())
	}
	ys2, err := m.Eval(pts)
	if err != nil {
		t.Fatal(err)
	}
	if inner.pts != 3 {
		t.Fatalf("second pass re-measured: inner saw %d points, want still 3", inner.pts)
	}
	if m.Hits() != 3 {
		t.Fatalf("Hits = %d, want 3", m.Hits())
	}
	for i := range ys1 {
		if ys1[i] != ys2[i] {
			t.Fatalf("memoised value diverged at %d: %g vs %g", i, ys1[i], ys2[i])
		}
	}
	if got := rec.Count(event.KindDBMiss); got != 3 {
		t.Fatalf("db_miss events = %d, want 3", got)
	}
	if got := rec.Count(event.KindDBHit); got != 3 {
		t.Fatalf("db_hit events = %d, want 3", got)
	}
}

// seqEval hands every forwarded point a fresh value, so two copies of one
// configuration measured separately come back different.
type seqEval struct{ pts int }

func (c *seqEval) Eval(points []space.Point) ([]float64, error) {
	out := make([]float64, len(points))
	for i := range out {
		c.pts++
		out[i] = float64(c.pts) + 0.5
	}
	return out, nil
}

// A configuration named twice in one batch is measured once, and both copies
// get that one value.
func TestMemoMeasuresRepeatOnce(t *testing.T) {
	est, _ := sample.NewMinOfK(2)
	inner := &seqEval{}
	m := NewMemo(inner, NewMemory(Options{}), est, nil, nil)
	a, b := space.Point{1, 2}, space.Point{3, 4}
	out, err := m.Eval([]space.Point{a, b, a})
	if err != nil {
		t.Fatal(err)
	}
	if inner.pts != 2 {
		t.Fatalf("inner evaluator measured %d points, want 2", inner.pts)
	}
	if math.Float64bits(out[0]) != math.Float64bits(out[2]) || out[0] == out[1] {
		t.Fatalf("Eval([a b a]) = %v, want out[0] == out[2] != out[1]", out)
	}
}

// A configuration with fewer than K stored observations must still go to the
// inner evaluator: a partial history is not a resolved estimate.
func TestMemoPartialHistoryIsMiss(t *testing.T) {
	s := NewMemory(Options{})
	est, _ := sample.NewMinOfK(3)
	p := space.Point{5}
	s.Observe(p, 1)
	s.Observe(p, 2) // 2 < K observations
	inner := &countingEval{store: s, k: est.K()}
	m := NewMemo(inner, s, est, &event.Memory{}, nil)
	if _, err := m.Eval([]space.Point{p}); err != nil {
		t.Fatal(err)
	}
	if m.Misses() != 1 || inner.pts != 1 {
		t.Fatalf("partial history served as hit: misses %d inner %d", m.Misses(), inner.pts)
	}
}

// The served estimate must be est.Estimate over the FIRST K observations —
// what a live run computed — even after more observations accumulate.
func TestMemoUsesFirstK(t *testing.T) {
	s := NewMemory(Options{})
	est, _ := sample.NewMinOfK(2)
	p := space.Point{1}
	for _, v := range []float64{7, 5, 1} { // third obs is lower but arrived later
		s.Observe(p, v)
	}
	m := NewMemo(&countingEval{store: s, k: 2}, s, est, nil, nil)
	ys, err := m.Eval([]space.Point{p})
	if err != nil {
		t.Fatal(err)
	}
	if ys[0] != 5 {
		t.Fatalf("served %g, want min of first 2 observations = 5", ys[0])
	}
}

func TestBindSpace(t *testing.T) {
	s := NewMemory(Options{})
	if err := s.BindSpace("sigA"); err != nil {
		t.Fatal(err)
	}
	if err := s.BindSpace("sigA"); err != nil {
		t.Fatalf("re-binding the same signature failed: %v", err)
	}
	if err := s.BindSpace("sigB"); err == nil {
		t.Fatal("binding a conflicting signature succeeded")
	}
	if got := s.SpaceSig(); got != "sigA" {
		t.Fatalf("SpaceSig = %q, want sigA", got)
	}
}

func TestHighDimensionalKey(t *testing.T) {
	// Above maxStackDim the lookup path falls back to a heap key; behaviour
	// must be identical.
	dim := maxStackDim + 5
	p := make(space.Point, dim)
	for i := range p {
		p[i] = float64(i)
	}
	s := NewMemory(Options{})
	s.Observe(p, 42)
	obs, ok, _ := s.AppendObsSource(nil, p, 0)
	if !ok || len(obs) != 1 || obs[0] != 42 {
		t.Fatalf("high-dim lookup = %v, %v", obs, ok)
	}
}

// observed returns a memory store with origin "x" holding one observation
// per value, each at the point {v}.
func observed(vals ...float64) *Store {
	s := NewMemory(Options{Origin: "x"})
	for _, v := range vals {
		s.Observe(space.Point{v}, v)
	}
	return s
}

// Merge compares the frames both stores hold of an origin before applying
// any: two histories of origin "x" that disagree on their common prefix do
// not merge, in either direction, and leave the destination unchanged. A
// source that extends the destination's history merges as before.
func TestMergeRefusesDivergedOrigin(t *testing.T) {
	for _, c := range []struct{ dst, src []float64 }{
		{[]float64{5, 6, 7}, []float64{1, 2}},
		{[]float64{1, 2}, []float64{5, 6, 7}},
		{[]float64{1, 2}, []float64{1, 6, 7}},
	} {
		dst, src := observed(c.dst...), observed(c.src...)
		st, err := dst.Merge(src)
		if err == nil {
			t.Errorf("merging %v into %v: no error (applied %d, duplicates %d)", c.src, c.dst, st.Applied, st.Duplicates)
		}
		if _, obs := dst.Stats(); obs != len(c.dst) || dst.High("x") != uint64(len(c.dst)) {
			t.Errorf("merging %v into %v changed the destination: %d observations, high %d", c.src, c.dst, obs, dst.High("x"))
		}
	}

	dst := observed(1, 2)
	st, err := dst.Merge(observed(1, 2, 3))
	if err != nil || st != (MergeStats{Applied: 1, Duplicates: 2}) {
		t.Fatalf("merging an extension: %+v, %v; want 1 applied, 2 duplicates", st, err)
	}
}

// Two stores bound to discrete spaces whose menus share their bounds are
// bound to different spaces, so neither merges into the other.
func TestMergeRefusesOtherMenu(t *testing.T) {
	bound := func(origin string, menu ...float64) *Store {
		s := NewMemory(Options{Origin: origin})
		if err := s.BindSpace(space.MustNew(space.DiscreteParam("n", menu...)).String()); err != nil {
			t.Fatal(err)
		}
		s.Observe(space.Point{menu[1]}, 1)
		return s
	}
	a, b := bound("a", 1, 2, 4), bound("b", 1, 3, 4)
	if _, err := a.Merge(b); err == nil {
		t.Error("a store over menu {1,3,4} merged into one over {1,2,4}")
	}
	if _, err := b.Merge(a); err == nil {
		t.Error("a store over menu {1,2,4} merged into one over {1,3,4}")
	}
}
