package dist

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"paratune/internal/alloccheck"
)

// rngPair draws from NewRNG and from math/rand's own seeded source side by
// side; every draw must agree.
type rngPair struct {
	tb        testing.TB
	seed      int64
	got, want *rand.Rand
	n         int // draws since the last Seed
}

func newRNGPair(tb testing.TB, seed int64) *rngPair {
	return &rngPair{tb: tb, seed: seed, got: NewRNG(seed), want: rand.New(rand.NewSource(seed))}
}

func (p *rngPair) fail(op string, got, want any) {
	p.tb.Helper()
	p.tb.Fatalf("seed %d, draw %d: %s = %v, math/rand gives %v", p.seed, p.n, op, got, want)
}

// step runs the operation op selects on both generators. Intn's bound comes
// from op too, so both its Int31n and Int63n paths (and their rejection
// loops) are exercised.
func (p *rngPair) step(op byte) {
	p.tb.Helper()
	p.n++
	switch op % 5 {
	case 0:
		if g, w := p.got.Int63(), p.want.Int63(); g != w {
			p.fail("Int63", g, w)
		}
	case 1:
		if g, w := p.got.Uint64(), p.want.Uint64(); g != w {
			p.fail("Uint64", g, w)
		}
	case 2:
		if g, w := p.got.Float64(), p.want.Float64(); g != w {
			p.fail("Float64", g, w)
		}
	case 3:
		n := []int{1, 10, 1000, 1<<31 - 1, 3<<40 + 7}[int(op/5)%5]
		if g, w := p.got.Intn(n), p.want.Intn(n); g != w {
			p.fail("Intn", g, w)
		}
	case 4:
		v := p.want.Uint64()
		if g := p.got.Uint64(); g != v {
			p.fail("Uint64 before Seed", g, v)
		}
		p.reseed(int64(v))
	}
}

func (p *rngPair) reseed(seed int64) {
	p.seed, p.n = seed, 0
	p.got.Seed(seed)
	p.want.Seed(seed)
}

// streamSeeds returns the seeds TestNewRNGMatchesMathRand checks: the edges
// of math/rand's seed normalisation (zero and its substitute, multiples of
// 2³¹−1 of both signs, the int64 extremes) plus pseudo-random seeds.
func streamSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 42, 89482311, -89482311, 89482311 + m,
		m, -m, m - 1, m + 1, -m - 1, 2 * m, -2 * m, 1000 * m, -1000 * m,
		(math.MaxInt64 / m) * m, (math.MinInt64 / m) * m,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	r := rand.New(rand.NewSource(1))
	for len(seeds) < 2011 {
		s := int64(r.Uint64())
		if len(seeds)%3 == 0 {
			s %= 1 << 20 // small seeds, as the experiments use
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestNewRNGMatchesMathRand pins NewRNG to rand.New(rand.NewSource(seed))
// over 2,011 seeds: 1,300 mixed draws (past two register revolutions), a
// re-seed, up to 333 draws, re-seeds after draw 273 (the last short draw),
// 274 (the register's first) and 334 (the last to read a seeded feed
// word), and another 1,300 draws.
func TestNewRNGMatchesMathRand(t *testing.T) {
	for i, seed := range streamSeeds() {
		p := newRNGPair(t, seed)
		ops := func(k int) {
			for j := 0; j < k; j++ {
				// Mostly plain draws; every 97th op exercises Seed.
				op := byte((i + 7*j) % 25)
				if op%5 == 4 && (i+j)%97 != 0 {
					op--
				}
				p.step(op)
			}
		}
		ops(1300)
		p.reseed(seed ^ int64(i)<<33)
		ops(i % 334)
		for _, k := range []int{273, 274, 334} {
			p.reseed(seed + int64(k*i))
			ops(k)
		}
		p.reseed(seed + int64(i))
		ops(1300)
	}
}

// TestNewRNGUnusedIsSmall checks that an RNG which never draws does not
// allocate its 607-word register: two small allocations, the source and the
// rand.Rand, at most 256 bytes together (math/rand's seeded source is 5,424).
func TestNewRNGUnusedIsSmall(t *testing.T) {
	var sink *rand.Rand
	alloccheck.Guard(t, "NewRNG unused", 2, func() { sink = NewRNG(7) })
	const n = 1000
	rngs := make([]*rand.Rand, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rngs {
		rngs[i] = NewRNG(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256 {
		t.Errorf("an unused NewRNG costs %d bytes, budget 256", per)
	}
	if sink.Int63() < 0 || rngs[n-1].Int63() < 0 {
		t.Fatal("Int63 returned a negative value")
	}
}

// TestNewRNGRegisterAtDraw274 pins when the 607-word register appears: a
// stream that draws 273 times keeps the unused budget of two allocations,
// and draw 274 adds exactly one, the register.
func TestNewRNGRegisterAtDraw274(t *testing.T) {
	draws := func(n int) func() {
		return func() {
			rng := NewRNG(7)
			for j := 0; j < n; j++ {
				rng.Int63()
			}
		}
	}
	alloccheck.Guard(t, "NewRNG plus 273 draws", 2, draws(rngTap))
	if alloccheck.RaceEnabled {
		return
	}
	if got := testing.AllocsPerRun(100, draws(rngTap+1)); got != 3 {
		t.Errorf("NewRNG plus 274 draws: %.1f allocs/run, want 3 (the register)", got)
	}
}

// FuzzNewRNGMatchesMathRand compares NewRNG with math/rand from a fuzzed
// seed, draw count and op mix (Int63, Uint64, Float64, Intn, Seed).
func FuzzNewRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(700), []byte{0, 1, 2, 3})
	f.Add(int64(math.MinInt64), uint16(1300), []byte{2})
	f.Add(int64(1<<31-1), uint16(400), []byte{4, 0, 0, 9})
	f.Add(int64(42), uint16(2000), []byte{1, 2, 8, 13, 18, 23, 4, 2})
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, mix []byte) {
		if len(mix) == 0 {
			mix = []byte{0}
		}
		p := newRNGPair(t, seed)
		for j := 0; j < int(draws)%4096; j++ {
			p.step(mix[j%len(mix)])
		}
	})
}

// BenchmarkNewRNG prices NewRNG against math/rand's seeded source: an RNG
// that never draws, seeding plus 200 draws (the common life of a simulated
// processor's stream, which never allocates a register), and one Float64
// from a long-running stream.
func BenchmarkNewRNG(b *testing.B) {
	ctors := []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"dist", NewRNG},
		{"mathrand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	}
	var sink float64
	for _, c := range ctors {
		b.Run("unused/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.new(int64(i)) == nil {
					b.Fatal("nil RNG")
				}
			}
		})
		b.Run("draw200/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := c.new(int64(i))
				for j := 0; j < 200; j++ {
					sink += rng.Float64()
				}
			}
		})
		b.Run("long/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := c.new(1)
			for j := 0; j < 2*rngLen; j++ {
				rng.Float64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += rng.Float64()
			}
		})
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN draw")
	}
}
