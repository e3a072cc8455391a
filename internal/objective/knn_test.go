package objective

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/space"
)

// specialProbes are the non-finite and signed-zero queries the grid walk
// hands to the scan, plus on-grid points carrying them in one coordinate.
func specialProbes() []space.Point {
	nan, inf, negz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	return []space.Point{
		{nan, 18, 8}, {36, nan, 8}, {36, 18, nan}, {nan, nan, nan},
		{inf, 18, 8}, {-inf, 18, 8}, {36, inf, 8}, {36, 18, -inf},
		{inf, -inf, inf}, {inf, nan, 8},
		{negz, 18, 8}, {36, negz, 8}, {36, 18, negz}, {negz, negz, negz},
		{1e300, 18, 8}, {-1e300, 1e300, 8}, {36, 18, 1e-300},
		{36, 18, 8, 1}, // too long: the extra coordinate is ignored
	}
}

// offGridProbes draws n queries around and between GS2 grid points: uniform
// reals beyond the ranges, half-integers (heavy distance ties), and grid
// points with one coordinate nudged.
func offGridProbes(rng *rand.Rand, n int) []space.Point {
	s := GS2Space()
	out := make([]space.Point, 0, n)
	for len(out) < n {
		var p space.Point
		switch len(out) % 3 {
		case 0:
			p = space.Point{rng.Float64()*80 - 4, rng.Float64()*40 - 2, rng.Float64() * 70}
		case 1:
			p = space.Point{float64(8+rng.Intn(57)) + 0.5, float64(4+rng.Intn(29)) - 0.5, float64(1 + rng.Intn(64))}
		default:
			p = s.Random(rng)
			j := rng.Intn(3)
			p[j] = math.Nextafter(p[j], math.Inf(rng.Intn(2)*2-1))
		}
		out = append(out, p)
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestDBEvalMatchesReferenceScan is the kernel's differential test: on every
// grid point and thousands of off-grid probes per (seed, coverage) — down to
// 5% coverage, where distance ties are common — DB.Eval and DB.Lookup return
// the same bits as the pre-kernel scan and formatted-key index. Each (seed,
// coverage) case is a parallel subtest.
func TestDBEvalMatchesReferenceScan(t *testing.T) {
	seeds := []int64{1, 7, 42, 99}
	if testing.Short() || alloccheck.RaceEnabled {
		seeds = seeds[:1] // the reference scan is slow under instrumentation
	}
	for _, seed := range seeds {
		for _, cov := range []float64{0.05, 0.3, 0.85, 1} {
			t.Run(fmt.Sprintf("seed=%d/coverage=%g", seed, cov), func(t *testing.T) {
				t.Parallel()
				db := GenerateGS2(GS2Config{Seed: seed, Coverage: cov})
				ref := newRefDB(db)
				check := func(p space.Point) {
					t.Helper()
					if got, want := db.Eval(p), ref.eval(p); !sameBits(got, want) {
						t.Fatalf("Eval(%v) = %v, reference %v", p, got, want)
					}
					gv, gok := db.Lookup(p)
					wv, wok := ref.lookup(p)
					if gok != wok || !sameBits(gv, wv) {
						t.Fatalf("Lookup(%v) = %v,%v, reference %v,%v", p, gv, gok, wv, wok)
					}
				}
				_ = GS2Space().Enumerate(check)
				for _, p := range offGridProbes(rand.New(rand.NewSource(seed)), 3000) {
					check(p)
				}
				for _, p := range specialProbes() {
					check(p)
				}
			})
		}
	}
}

// A KNN beyond the stack bounds (more neighbours than stackK, more axis
// values than stackAxis) and in four dimensions still matches the scan.
func TestKNNHeapScratchMatchesReferenceScan(t *testing.T) {
	s := space.MustNew(
		space.IntParam("a", 0, 199),
		space.DiscreteParam("b", -3, -1, 0.5, 2, 7),
		space.IntParam("c", -40, 40),
		space.DiscreteParam("d", 1, 10, 100),
	)
	db, err := NewDB(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		db.Add(s.Random(rng), rng.Float64())
	}
	ref := newRefDB(db)
	for i := 0; i < 2000; i++ {
		p := s.Random(rng)
		if i%2 == 1 {
			p[rng.Intn(4)] += rng.NormFloat64() * 5
		}
		if got, want := db.Eval(p), ref.eval(p); !sameBits(got, want) {
			t.Fatalf("Eval(%v) = %v, reference %v", p, got, want)
		}
	}
}

// Interpolate keeps its scratch on the stack, so concurrent evaluations of
// one populated DB (the serve workloads share one surface across sessions)
// neither race nor disturb each other's results.
func TestDBEvalConcurrent(t *testing.T) {
	db := GenerateGS2(GS2Config{Seed: 42, Coverage: 0.3})
	probes := offGridProbes(rand.New(rand.NewSource(5)), 200)
	want := make([]float64, len(probes))
	for i, p := range probes {
		want[i] = db.Eval(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range probes {
				if got := db.Eval(p); !sameBits(got, want[i]) {
					t.Errorf("concurrent Eval(%v) = %v, serial %v", p, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDBEval: for any query coordinates, DB.Eval returns the reference
// scan's bits, at sparse (tie-heavy) and dense coverage.
func FuzzDBEval(f *testing.F) {
	dbs := []*DB{
		GenerateGS2(GS2Config{Seed: 42, Coverage: 0.05}),
		GenerateGS2(GS2Config{Seed: 42, Coverage: 0.85}),
	}
	refs := []*refDB{newRefDB(dbs[0]), newRefDB(dbs[1])}
	f.Add(36.0, 18.0, 8.0, false)
	f.Add(36.5, 17.5, 3.0, true)
	f.Add(math.Inf(1), 4.0, 1.0, false)
	f.Add(math.NaN(), 4.0, 1.0, true)
	f.Add(math.Copysign(0, -1), 1e308, -1e308, false)
	f.Fuzz(func(t *testing.T, a, b, c float64, sparse bool) {
		i := 1
		if sparse {
			i = 0
		}
		p := space.Point{a, b, c}
		if got, want := dbs[i].Eval(p), refs[i].eval(p); !sameBits(got, want) {
			t.Fatalf("Eval(%v) = %v, reference %v", p, got, want)
		}
	})
}

// The GS2 surrogate database is pinned bit for bit: every stored point and
// value, in insertion order, at the experiments' seed and coverage. Drift in
// the jitter hash, the enumeration or the index fails here.
func TestGenerateGS2GoldenDigest(t *testing.T) {
	const want = "87d66c5bc3831fc76d63429f720339a921a44a36d949ce224a10c45614c44acc"
	db := GenerateGS2(GS2Config{Seed: 42, Coverage: 0.85})
	h := sha256.New()
	var b [8]byte
	var p space.Point
	for i, v := range db.knn.vals {
		p = append(db.knn.appendPoint(p[:0], i), v)
		for _, c := range p {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(c))
			h.Write(b[:])
		}
	}
	if db.Len() != 9831 {
		t.Errorf("stored %d points, golden 9831", db.Len())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("GS2 database digest %s, golden %s", got, want)
	}
}

// Save writes coordinates rebuilt from each stored cell; its CSV (which
// cmd/gs2gen writes) is pinned byte for byte at the experiments' seed and
// coverage, as Save wrote it from stored coordinates.
func TestSaveGoldenDigest(t *testing.T) {
	const want = "a310122c46bbf646f22198758fc1939723fe04aa44591f5b49cc150b26f30fd5"
	h := sha256.New()
	if err := GenerateGS2(GS2Config{Seed: 42, Coverage: 0.85}).Save(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("GS2 Save digest %s, golden %s", got, want)
	}
}

func TestDBAddPanicsOffGrid(t *testing.T) {
	for _, p := range []space.Point{
		{8.5, 4, 1},        // between integer values
		{8, 4, 3},          // not a node count
		{7, 4, 1},          // below range
		{8, 4},             // wrong dimension
		{math.NaN(), 4, 1}, // NaN
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "not a grid point") {
					t.Fatalf("Add(%v): recovered %q, want a not-a-grid-point panic", p, msg)
				}
			}()
			db, _ := NewDB(GS2Space(), 4)
			db.Add(p, 1)
		}()
	}
	// -0 is admissible as 0 but not bit-identical to it; LoadDB reports it.
	s := space.MustNew(space.IntParam("a", 0, 3))
	db, _ := NewDB(s, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add(-0) on a 0-based axis did not panic")
			}
		}()
		db.Add(space.Point{math.Copysign(0, -1)}, 1)
	}()
	if _, err := LoadDB(s, 1, strings.NewReader("a,time\n-0,1\n")); err == nil {
		t.Fatal("LoadDB accepted -0")
	}
}

func TestNewDBRejectsOversizedGrid(t *testing.T) {
	s := space.MustNew(space.IntParam("a", 0, 1<<20), space.IntParam("b", 0, 1<<20))
	if _, err := NewDB(s, 4); err == nil {
		t.Fatal("NewDB accepted a 2^40-cell grid")
	}
}

// Lookup and both Eval paths run once per candidate evaluation; they must
// not allocate.
func TestDBAllocs(t *testing.T) {
	db := GenerateGS2(GS2Config{Seed: 42, Coverage: 0.85})
	var hit, miss space.Point
	_ = GS2Space().Enumerate(func(p space.Point) {
		if _, ok := db.Lookup(p); ok && hit == nil {
			hit = p.Clone()
		} else if !ok && miss == nil {
			miss = p.Clone()
		}
	})
	off := space.Point{36.5, 17.25, 3}
	var sink float64
	alloccheck.Guard(t, "objective.DB.Lookup", 0, func() { sink, _ = db.Lookup(hit) })
	alloccheck.Guard(t, "objective.DB.Eval hit", 0, func() { sink = db.Eval(hit) })
	alloccheck.Guard(t, "objective.DB.Eval interpolated miss", 0, func() { sink = db.Eval(miss) })
	alloccheck.Guard(t, "objective.DB.Eval off-grid", 0, func() { sink = db.Eval(off) })
	alloccheck.Guard(t, "objective.DB.Eval non-finite scan", 0, func() { sink = db.Eval(space.Point{math.Inf(1), 4, 1}) })
	_ = sink
}

// gs2EvalRef is the surface formula written out in one expression per
// term, as gs2Model.Eval computed it before the build tabled its per-axis
// terms, with the jitter hash taken over the whole "seed:key" string.
func gs2EvalRef(m *gs2Model, x space.Point) float64 {
	ntheta, negrid, nodes := x[0], x[1], x[2]
	work := ntheta * negrid
	compute := 0.004 * work / math.Pow(nodes, 0.82)
	comm := 0.012 * math.Log2(nodes+1) * math.Sqrt(work) / 8
	rem := math.Mod(ntheta, nodes)
	imbalance := 0.02 * rem / math.Max(nodes, 1)
	uTheta := (ntheta - 8) / 56
	uGrid := (negrid - 4) / 28
	uNodes := math.Log2(nodes) / 6
	edge := math.Pow(2*uTheta-1, 4) + math.Pow(2*uGrid-1, 4) + math.Pow(2*uNodes-1, 4)
	base := 0.5 + compute + comm + imbalance + 0.35*edge
	rip := m.rippleAmp * (math.Sin(ntheta/3.1+m.phase1) * math.Cos(negrid/2.3+m.phase2) *
		(1 + 0.5*math.Sin(math.Log2(nodes+1)*2.9+m.phase3)))
	key := strconv.FormatInt(m.seed, 10) + ":" + x.Key()
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	jit := m.jitterAmp * (float64(h%1e9)/1e9 - 0.5)
	v := base + rip + jit
	if v < 0.05 {
		v = 0.05
	}
	return v
}

// GS2Surface is the function GenerateGS2 stores, and both are the reference
// formula: equal bits at every stored point, for several seeds (a negative
// one puts a '-' in the jitter hash's prefix), coverages and amplitudes.
// The surface also matches the reference off the grid.
func TestGS2SurfaceMatchesDB(t *testing.T) {
	off := []space.Point{{36.5, 17.25, 3}, {8, 4, 0.5}, {100, -3, 64}, {1e7, 2.5e-9, 2}}
	for _, cfg := range []GS2Config{
		{Seed: 42, Coverage: 0.85}, {Seed: 7, Coverage: 1}, {Seed: 3, Coverage: 0.3},
		{Seed: -12345, Coverage: 0.6, RuggednessAmp: 0.9, JitterAmp: 0.4},
	} {
		db := GenerateGS2(cfg)
		surf := GS2Surface(cfg)
		if surf.Space().String() != db.Space().String() {
			t.Fatalf("surface space %v, database space %v", surf.Space(), db.Space())
		}
		m := surf.(*gs2Model)
		for _, p := range append(storedPoints(db), off...) {
			ref := gs2EvalRef(m, p)
			if got := surf.Eval(p); !sameBits(got, ref) {
				t.Fatalf("seed %d: GS2Surface.Eval(%v) = %v, reference %v", cfg.Seed, p, got, ref)
			}
			if v, ok := db.Lookup(p); ok && !sameBits(v, ref) {
				t.Fatalf("seed %d: DB stores %v at %v, reference %v", cfg.Seed, v, p, ref)
			}
		}
	}
}

// A GS2 build fills three pre-sized flat tables and keeps no coordinates:
// it must not allocate per point, and its bytes stay under 256 KiB (storing
// each point's coordinates took 718 KB). The surface evaluates one point
// without allocating.
func TestGenerateGS2Allocs(t *testing.T) {
	build := func() { sinkDB = GenerateGS2(GS2Config{Seed: 42, Coverage: 0.85}) }
	alloccheck.Guard(t, "objective.GenerateGS2", 26, build)
	// Bytes per build over a fixed count of builds, from the TotalAlloc
	// delta: a fixed count keeps the test's time bounded.
	const builds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if got := int64(after.TotalAlloc-before.TotalAlloc) / builds; got > 256<<10 {
		t.Errorf("objective.GenerateGS2 allocates %d bytes per build, budget %d", got, 256<<10)
	}
	surf, p := GS2Surface(GS2Config{Seed: -3}), space.Point{36, 18, 8}
	var sink float64
	alloccheck.Guard(t, "objective.GS2Surface.Eval", 0, func() { sink = surf.Eval(p) })
	_ = sink
}

var sinkDB *DB

func BenchmarkGenerateGS2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDB = GenerateGS2(GS2Config{Seed: 42, Coverage: 0.85})
	}
}
