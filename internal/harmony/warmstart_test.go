package harmony

import (
	"math"
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

// A candidate's estimate is its first K reports. With min-of-3, a reissued
// sample of candidate A is reported (5) before A's three originals (4, 3, 1):
// the last is surplus. The estimator sees exactly K values per candidate, and
// the estimate the session used, its best value, is the first-K estimate the
// store serves a warm session, in-process and over the wire.
func TestEstimateIsFirstKReports(t *testing.T) {
	const k = 3
	a, b := space.Point{8, 4, 1}, space.Point{32, 16, 8}
	type tuner interface {
		Register(name string, params []space.Parameter) error
		FetchN(name string, n int) ([]FetchResult, error)
		Report(name string, tag uint64, value float64) error
		Best(name string) (space.Point, float64, bool, error)
	}
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
			var tu tuner = srv
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
			tags := map[bool]uint64{}
			for _, fr := range grant {
				tags[fr.Point.Equal(a)] = fr.Tag
			}
			// Every sample is out, so the next fetch reissues A.
			again, err := tu.FetchN("s", 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(grant) != 2*k || len(again) != 1 || again[0].Tag != tags[true] {
				t.Fatalf("grant %+v then %+v, want %d samples then a reissue of A (tag %d)", grant, again, 2*k, tags[true])
			}
			for _, v := range []float64{5, 4, 3, 1} {
				if err := tu.Report("s", tags[true], v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < k; i++ {
				if err := tu.Report("s", tags[false], 2); err != nil {
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
			if warm := est.Estimator.Estimate(first); best != warm || best != 3 {
				t.Errorf("session estimated A as %v, store's first-%d estimate %v, want 3", best, k, warm)
			}
		})
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
