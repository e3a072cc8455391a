package harmony

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"paratune/internal/alloccheck"
	"paratune/internal/core"
	"paratune/internal/event"
	"paratune/internal/feddb"
	"paratune/internal/measuredb"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// driveCounting runs one noiseless client until the session converges,
// returning how many reports the server accepted. Deterministic measurements
// make the optimiser trajectory reproducible across servers, which is what
// the warm-start contract relies on.
func driveCounting(t testing.TB, srv *Server, name string, f objective.Function) int {
	t.Helper()
	reports := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		fr, err := srv.Fetch(name)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Converged {
			return reports
		}
		if fr.Tag == 0 {
			t.Fatal("Tag-0 fetch before convergence")
		}
		if err := srv.Report(name, fr.Tag, f.Eval(fr.Point)); err == nil {
			reports++
		}
	}
	t.Fatal("session did not converge before the deadline")
	return 0
}

// warmServer returns a server wired like harmonyd -db, a memory store
// behind a read-through estimate cache, whose store already resolves every
// candidate of a gs2Params session: a cold server first drove one such
// session to convergence into it, noiselessly. A session registered on the
// returned server therefore converges inside Register, at best. opts
// supplies everything but the estimator (min-of-3), store and cache.
func warmServer(t testing.TB, opts ServerOptions) (srv *Server, best space.Point) {
	t.Helper()
	est := mustMinOfK(t, 3)
	db := measuredb.NewMemory(measuredb.Options{})
	sp, err := space.New(gs2Params()...)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewServer(ServerOptions{Estimator: est, DB: db})
	defer cold.Close()
	if err := cold.Register("cold", gs2Params()); err != nil {
		t.Fatal(err)
	}
	driveCounting(t, cold, "cold", objective.NewSphere(sp, space.Point{32, 16, 8}, 1))
	if best, _, _, err = cold.Best("cold"); err != nil {
		t.Fatal(err)
	}
	opts.Estimator, opts.DB, opts.Cache = est, db, feddb.NewCache(db, est, est.K(), 0)
	srv = NewServer(opts)
	t.Cleanup(srv.Close)
	return srv, best
}

// The cross-restart warm-start contract: a second server sharing the first
// server's measurement store answers every candidate from it, so the session
// converges to the bit-identical best without a single client report.
func TestWarmStartAcrossServers(t *testing.T) {
	db := measuredb.NewMemory(measuredb.Options{})
	sp, err := space.New(gs2Params()...)
	if err != nil {
		t.Fatal(err)
	}
	f := objective.NewSphere(sp, space.Point{32, 16, 8}, 1)

	srv1 := NewServer(ServerOptions{Estimator: mustMinOfK(t, 2), DB: db})
	if err := srv1.Register("app", gs2Params()); err != nil {
		t.Fatal(err)
	}
	cold := driveCounting(t, srv1, "app", f)
	srv1.Close()
	if cold == 0 {
		t.Fatal("cold session accepted no reports")
	}
	if configs, obs := db.Stats(); configs == 0 || obs == 0 {
		t.Fatalf("store after cold session: %d configs, %d observations", configs, obs)
	}

	rec := &event.Memory{}
	srv2 := NewServer(ServerOptions{Estimator: mustMinOfK(t, 2), DB: db, Recorder: rec})
	defer srv2.Close()
	if err := srv2.Register("app", gs2Params()); err != nil {
		t.Fatal(err)
	}
	warm := driveCounting(t, srv2, "app", f)
	if warm != 0 {
		t.Fatalf("warm session accepted %d reports, want golden 0 (every candidate pre-resolved)", warm)
	}
	if rec.Count(event.KindDBHit) == 0 {
		t.Fatal("warm session recorded no db_hit")
	}
	if n := rec.Count(event.KindDBMiss); n != 0 {
		t.Fatalf("warm session recorded %d db_miss, want 0", n)
	}

	b1, v1, _, err := srv1.Best("app")
	if err != nil {
		t.Fatal(err)
	}
	b2, v2, conv, err := srv2.Best("app")
	if err != nil {
		t.Fatal(err)
	}
	if !conv {
		t.Fatal("warm session not converged")
	}
	if !b1.Equal(b2) {
		t.Fatalf("best diverged across servers: %v vs %v", b1, b2)
	}
	if v1 != v2 {
		t.Fatalf("best value diverged: %g vs %g", v1, v2)
	}
}

// repeatAlg proposes one batch that names its incumbent twice beside a worse
// configuration, and keeps the lower of the incumbent's two estimates. PRO
// does the same when projection folds several candidates onto one grid
// point.
type repeatAlg struct {
	inc, other space.Point
	best       float64
	done       bool
}

func (a *repeatAlg) Init(ev core.Evaluator) error {
	vals, err := ev.Eval([]space.Point{a.inc, a.other, a.inc})
	if err != nil {
		return err
	}
	a.best, a.done = math.Min(vals[0], vals[2]), true
	return nil
}

func (a *repeatAlg) Step(core.Evaluator) (core.StepInfo, error) {
	return core.StepInfo{Kind: core.StepConverged, Best: a.inc, BestValue: a.best}, nil
}

func (a *repeatAlg) Best() (space.Point, float64) { return a.inc, a.best }
func (a *repeatAlg) Converged() bool              { return a.done }
func (a *repeatAlg) String() string               { return "repeat" }

// A batch that proposes the incumbent twice measures it once, so the cold
// session's estimate is the first-K estimate the store later serves a warm
// session. Every report is lower than the one before, so copies measured
// apart would estimate differently, and the cold session would keep the
// lower one.
func TestRepeatedIncumbentSameEstimateColdAndWarm(t *testing.T) {
	db := measuredb.NewMemory(measuredb.Options{})
	opts := ServerOptions{
		Estimator: mustMinOfK(t, 2), DB: db,
		NewAlgorithm: func(*space.Space) (core.Algorithm, error) {
			return &repeatAlg{inc: space.Point{8, 4, 1}, other: space.Point{32, 16, 8}}, nil
		},
	}
	reports := 0
	run := func() float64 {
		t.Helper()
		srv := NewServer(opts)
		defer srv.Close()
		if err := srv.Register("app", gs2Params()); err != nil {
			t.Fatal(err)
		}
		for {
			fr, err := srv.Fetch("app")
			if err != nil {
				t.Fatal(err)
			}
			if fr.Converged {
				break
			}
			reports++
			if err := srv.Report("app", fr.Tag, fr.Point[0]-float64(reports)/64); err != nil {
				t.Fatal(err)
			}
		}
		_, v, _, err := srv.Best("app")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	cold := run()
	coldReports := reports
	warm := run()
	if math.Float64bits(cold) != math.Float64bits(warm) {
		t.Fatalf("incumbent estimate %v cold, %v warm", cold, warm)
	}
	if coldReports != 4 || reports != coldReports {
		t.Fatalf("sessions took %d reports cold and %d warm, want 4 (K=2 for each distinct configuration) and 0",
			coldReports, reports-coldReports)
	}
}

// lenEstimator wraps an estimator and records the length of every
// observation slice it reduces. Wire sessions estimate on server goroutines,
// so the record is locked.
type lenEstimator struct {
	sample.Estimator
	mu   sync.Mutex
	lens []int
}

func (e *lenEstimator) Estimate(obs []float64) float64 {
	e.mu.Lock()
	e.lens = append(e.lens, len(obs))
	e.mu.Unlock()
	return e.Estimator.Estimate(obs)
}

// reportAPI is the surface the in-process Server and the wire Client share
// for fetching slots in batches and reporting them one at a time.
type reportAPI interface {
	Register(name string, params []space.Parameter) error
	FetchN(name string, n int) ([]FetchResult, error)
	Report(name string, tag uint64, value float64) error
	Best(name string) (space.Point, float64, bool, error)
}

// A candidate's estimate is taken over its K sample slots. With min-of-3,
// candidate A's three slots are reported last first (1, 3, 4), then a
// reissue of slot 0 reports 0.5: the slot is filled, so 0.5 is surplus. The
// estimator sees exactly K values per candidate, the surplus is stored but
// never estimated, and the estimate the session used, its best value, is the
// first-K estimate the store serves a warm session, in-process and over the
// wire.
func TestEstimateIsFirstKReports(t *testing.T) {
	const k = 3
	a, b := space.Point{8, 4, 1}, space.Point{32, 16, 8}
	for _, path := range []string{"in-process", "binary"} {
		t.Run(path, func(t *testing.T) {
			db := measuredb.NewMemory(measuredb.Options{})
			est := &lenEstimator{Estimator: mustMinOfK(t, k)}
			srv := NewServer(ServerOptions{
				Estimator: est, DB: db,
				NewAlgorithm: func(*space.Space) (core.Algorithm, error) {
					return &repeatAlg{inc: a, other: b}, nil
				},
			})
			defer srv.Close()
			var tu reportAPI = srv
			if path == "binary" {
				tu, _ = dialTest(t, srv)
			}
			if err := tu.Register("s", gs2Params()); err != nil {
				t.Fatal(err)
			}
			grant, err := tu.FetchN("s", 2*k)
			if err != nil {
				t.Fatal(err)
			}
			var slotsA, slotsB []uint64
			for _, fr := range grant {
				if fr.Point.Equal(a) {
					slotsA = append(slotsA, fr.Tag)
				} else {
					slotsB = append(slotsB, fr.Tag)
				}
			}
			// Every slot is out, so the next fetch reissues A's slot 0.
			again, err := tu.FetchN("s", 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(slotsA) != k || len(slotsB) != k || len(again) != 1 || again[0].Tag != slotsA[0] {
				t.Fatalf("grant %+v then %+v, want %d slots each of A and B, then a reissue of A's slot 0", grant, again, k)
			}
			reports := []ReportItem{
				{Tag: slotsA[2], Value: 1}, {Tag: slotsA[1], Value: 3}, {Tag: slotsA[0], Value: 4},
				{Tag: again[0].Tag, Value: 0.5},
				{Tag: slotsB[0], Value: 2}, {Tag: slotsB[1], Value: 2}, {Tag: slotsB[2], Value: 2},
			}
			for _, r := range reports {
				if err := tu.Report("s", r.Tag, r.Value); err != nil {
					t.Fatal(err)
				}
			}

			est.mu.Lock()
			lens := append([]int(nil), est.lens...)
			est.mu.Unlock()
			if len(lens) != 2 || lens[0] != k || lens[1] != k {
				t.Errorf("estimator saw observation counts %v, want [%d %d]", lens, k, k)
			}
			_, best, converged, err := tu.Best("s")
			if err != nil || !converged {
				t.Fatalf("best after the batch: converged %v, %v", converged, err)
			}
			first, _, _ := db.AppendObsSource(nil, a, k)
			all, _, _ := db.AppendObsSource(nil, a, 0)
			if len(all) != 4 {
				t.Errorf("store holds %v for A, want all 4 reports", all)
			}
			if warm := est.Estimator.Estimate(first); best != warm || best != 1 {
				t.Errorf("session estimated A as %v, store's first-%d estimate %v, want 1", best, k, warm)
			}
		})
	}
}

// singleOfK applies Single's rule, the first observation, to K samples; at
// K=1 it is Single itself.
type singleOfK struct {
	sample.Single
	k int
}

func (e singleOfK) K() int { return e.k }

// batchAlg evaluates one batch and converges, keeping the batch's values;
// its best is the first candidate at its estimate.
type batchAlg struct {
	pts  []space.Point
	vals []float64
}

func (a *batchAlg) Init(ev core.Evaluator) error {
	vals, err := ev.Eval(a.pts)
	a.vals = vals
	return err
}

func (a *batchAlg) Step(core.Evaluator) (core.StepInfo, error) {
	return core.StepInfo{Kind: core.StepConverged, Best: a.pts[0], BestValue: a.vals[0]}, nil
}

func (a *batchAlg) Best() (space.Point, float64) {
	if a.vals == nil {
		return nil, 0
	}
	return a.pts[0], a.vals[0]
}
func (a *batchAlg) Converged() bool { return a.vals != nil }
func (a *batchAlg) String() string  { return "batch" }

// A session's estimate depends on its measurements, not on their arrival
// order. Two clients split candidate A's three samples, and in one run they
// deliver them in grant order, in the other in the opposite order; in both a
// reissued sample of A arrives as a surplus report once its slot is filled.
// The sums of MeanOfK and the first value Single keeps would both change
// with arrival order; over sample slots both estimates are bit-identical
// across orders, in-process and over PHWIRE1.
func TestEstimateIndependentOfArrivalOrder(t *testing.T) {
	const k = 3
	a, b := space.Point{8, 4, 1}, space.Point{32, 16, 8}
	// A's samples in slot order; (0.1+0.2)+0.3 and (0.3+0.2)+0.1 differ in
	// their last bit.
	samplesA := []float64{0.1, 0.2, 0.3}
	for _, est := range []sample.Estimator{sample.MeanOfK{Samples: k}, singleOfK{k: k}} {
		want := est.Estimate(samplesA)
		for _, path := range []string{"in-process", "binary"} {
			for _, reverse := range []bool{false, true} {
				name := fmt.Sprintf("%T/%s/reverse=%v", est, path, reverse)
				t.Run(name, func(t *testing.T) {
					srv := NewServer(ServerOptions{
						Estimator: est,
						NewAlgorithm: func(*space.Space) (core.Algorithm, error) {
							return &batchAlg{pts: []space.Point{a, b}}, nil
						},
					})
					defer srv.Close()
					var one, two reportAPI = srv, srv
					if path == "binary" {
						one, _ = dialTest(t, srv)
						two, _ = dialTest(t, srv)
					}
					if err := one.Register("s", gs2Params()); err != nil {
						t.Fatal(err)
					}
					if err := two.Register("s", gs2Params()); err != nil {
						t.Fatal(err)
					}
					// Pass-major grants: one holds A0 B0 A1, two holds B1 A2
					// B2, then two is reissued A0.
					g1, err := one.FetchN("s", k)
					if err != nil {
						t.Fatal(err)
					}
					g2, err := two.FetchN("s", k)
					if err != nil {
						t.Fatal(err)
					}
					re, err := two.FetchN("s", 1)
					if err != nil {
						t.Fatal(err)
					}
					if !re[0].Point.Equal(a) || !g1[0].Point.Equal(a) || !g1[2].Point.Equal(a) || !g2[1].Point.Equal(a) {
						t.Fatalf("grants %+v, %+v and %+v do not split A's samples as expected", g1, g2, re)
					}
					type delivery struct {
						by  reportAPI
						tag uint64
						v   float64
					}
					aFirst := []delivery{{one, g1[0].Tag, samplesA[0]}, {one, g1[2].Tag, samplesA[1]}, {two, g2[1].Tag, samplesA[2]}}
					if reverse {
						slices.Reverse(aFirst)
					}
					script := append(aFirst,
						delivery{two, re[0].Tag, 0.7}, // surplus: A0 is filled
						delivery{one, g1[1].Tag, 1}, delivery{two, g2[0].Tag, 1}, delivery{two, g2[2].Tag, 1})
					for _, d := range script {
						if err := d.by.Report("s", d.tag, d.v); err != nil {
							t.Fatal(err)
						}
					}
					_, got, converged, err := one.Best("s")
					if err != nil || !converged {
						t.Fatalf("best after the batch: converged %v, %v", converged, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("estimated A as %v (bits %x), want %v (bits %x)", got, math.Float64bits(got), want, math.Float64bits(want))
					}
				})
			}
		}
	}
}

// A store bound to one space rejects a session over a different one: the
// database is per-application, and silently mixing spaces would corrupt the
// k-NN replay geometry.
func TestServerRejectsMismatchedDBSpace(t *testing.T) {
	db := measuredb.NewMemory(measuredb.Options{})
	srv := NewServer(ServerOptions{DB: db})
	defer srv.Close()
	if err := srv.Register("a", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("b", []space.Parameter{space.IntParam("x", 0, 9)}); err == nil {
		t.Fatal("second session over a different space should be rejected")
	}
}

// A fully warm batch without a recorder allocates only the caller-owned
// result slice: the session's Memo serves every candidate from cache hits,
// which are allocation-free, and builds no db_hit event or config key.
func TestWarmBatchEvalAllocBudget(t *testing.T) {
	est := mustMinOfK(t, 3)
	db := measuredb.NewMemory(measuredb.Options{})
	srv := NewServer(ServerOptions{Estimator: est, DB: db, Cache: feddb.NewCache(db, est, est.K(), 0)})
	defer srv.Close()
	sp, err := space.New(gs2Params()...)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := srv.opts.NewAlgorithm(sp)
	if err != nil {
		t.Fatal(err)
	}
	s := srv.newSession("warm", sp, alg, false)
	if event.Active(s.rec) {
		t.Fatal("a server without a recorder reports an active one")
	}
	ev := s.newEvaluator()
	points := []space.Point{{8, 4, 1}, {16, 8, 2}, {32, 16, 4}, {64, 32, 64}}
	for i, p := range points {
		for j := 0; j < est.K(); j++ {
			db.Observe(p, float64(10*i+j+1))
		}
	}
	if _, err := ev.Eval(points); err != nil { // fills the cache
		t.Fatal(err)
	}
	alloccheck.Guard(t, "session Memo.Eval warm batch", 1, func() {
		vals, err := ev.Eval(points)
		if err != nil || len(vals) != len(points) || vals[3] != 31 {
			t.Fatalf("Eval = %v, %v", vals, err)
		}
	})
}
