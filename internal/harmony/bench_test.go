package harmony

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"paratune/internal/core"
	"paratune/internal/space"
)

// benchAlg is a minimal never-converging optimiser: every iteration proposes
// a fresh batch of k random candidates. It keeps the measurement pipeline —
// fetch, report, estimator reduce, next batch — saturated forever, so the
// benchmark measures the server stack rather than PRO's convergence horizon.
type benchAlg struct {
	sp   *space.Space
	rng  *rand.Rand
	k    int
	best space.Point
}

func (a *benchAlg) propose(ev core.Evaluator) error {
	pts := make([]space.Point, a.k)
	for i := range pts {
		pts[i] = a.sp.Random(a.rng)
	}
	a.best = pts[0]
	_, err := ev.Eval(pts)
	return err
}

func (a *benchAlg) Init(ev core.Evaluator) error { return a.propose(ev) }

func (a *benchAlg) Step(ev core.Evaluator) (core.StepInfo, error) {
	if err := a.propose(ev); err != nil {
		return core.StepInfo{}, err
	}
	return core.StepInfo{Kind: core.StepReflect, Best: a.best, Evals: a.k}, nil
}

func (a *benchAlg) Best() (space.Point, float64) { return a.best, 0 }
func (a *benchAlg) Converged() bool              { return false }
func (a *benchAlg) String() string               { return "benchalg" }

// benchStack describes one end of the before/after comparison.
type benchStack struct {
	name   string
	shards int // session table width: 1 = the old single-mutex table
	batch  int // measurements per round trip: 1 = the old single-op protocol
}

// BenchmarkServerParallelSessions compares the pre-refactor stack (single
// session-table mutex, one measurement per round trip) against the fleet
// stack (16-way sharded table, batched fetchn/reportn frames) at increasing
// session counts; both speak PHWIRE1. Each iteration pushes
// a fixed number of measurements through real clients over TCP, so ns/op is
// directly comparable across stacks and the reports/sec metric is the
// headline throughput number. The repository benchmark (perfbench/, with
// medians over repeated passes) tracks serving throughput end to end.
func BenchmarkServerParallelSessions(b *testing.B) {
	stacks := []benchStack{
		{name: "pre", shards: 1, batch: 1},
		{name: "sharded", shards: sessionShards, batch: 16},
	}
	for _, stack := range stacks {
		for _, sessions := range []int{1, 16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/sessions-%d", stack.name, sessions), func(b *testing.B) {
				benchServerStack(b, stack, sessions)
			})
		}
	}
}

func benchServerStack(b *testing.B, stack benchStack, sessions int) {
	const batchK = 16 // candidates per optimiser batch
	opts := ServerOptions{
		NewAlgorithm: func(sp *space.Space) (core.Algorithm, error) {
			return &benchAlg{sp: sp, rng: rand.New(rand.NewSource(1)), k: batchK}, nil
		},
	}
	srv := newServerWithShards(opts, stack.shards)
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)

	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%04d", i)
		if err := srv.Register(names[i], gs2Params()); err != nil {
			b.Fatal(err)
		}
	}

	// A small fixed fleet of workers, each with its own connection, spreads
	// the per-iteration measurement budget over every session. The budget is
	// fixed per iteration so -benchtime 1x runs are comparable.
	workers := 8
	if sessions < workers {
		workers = sessions
	}
	const totalOps = 4096 // measurements pushed per benchmark iteration
	clients := make([]*Client, workers)
	for i := range clients {
		c, err := DialWith(l.Addr().String(), DialOptions{
			Retries: 4,
			Backoff: time.Millisecond,
			Timeout: 30 * time.Second,
			Seed:    int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer func(c *Client) { _ = c.Close() }(c)
		clients[i] = c
	}

	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := clients[w]
				ops := totalOps / workers
				si := w // session cursor, strided so workers spread out
				items := make([]ReportItem, 0, stack.batch)
				for done := 0; done < ops; {
					name := names[si%len(names)]
					si += workers
					if stack.batch == 1 {
						fr, err := c.Fetch(name)
						if err != nil {
							b.Error(err)
							return
						}
						if err := c.Report(name, fr.Tag, 1.5); err != nil {
							b.Error(err)
							return
						}
						done++
						continue
					}
					frs, err := c.FetchN(name, stack.batch)
					if err != nil {
						b.Error(err)
						return
					}
					items = items[:0]
					for _, fr := range frs {
						items = append(items, ReportItem{Tag: fr.Tag, Value: 1.5})
					}
					if _, err := c.ReportN(name, items); err != nil {
						b.Error(err)
						return
					}
					done += len(frs)
				}
			}(w)
		}
		wg.Wait()
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(totalOps*b.N)/elapsed, "reports/s")
	}
}

// BenchmarkWarmSession measures the warm-start path from register to
// convergence: each iteration registers a fresh session on a server wired
// like harmonyd -db (a measurement store behind a read-through estimate
// cache) whose store already resolves every candidate, so the session has
// converged when Register returns. No client measures anything, so the
// cost is session setup, PRO's steps and the cache reads; allocs/op is the
// per-session garbage of that path.
func BenchmarkWarmSession(b *testing.B) {
	srv, want := warmServer(b, ServerOptions{})
	name := ""
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name = "warm-" + strconv.Itoa(i)
		if err := srv.Register(name, gs2Params()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	got, _, conv, err := srv.Best(name)
	if err != nil {
		b.Fatal(err)
	}
	if !conv || !got.Equal(want) {
		b.Fatalf("warm session best %v (converged %v), cold best %v", got, conv, want)
	}
}
