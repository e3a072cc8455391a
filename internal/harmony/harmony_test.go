package harmony

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// mustMinOfK builds the estimator or fails the test; a silent nil estimator
// would make NewServer fall back to its default and mask the intent.
func mustMinOfK(t testing.TB, k int) sample.Estimator {
	t.Helper()
	est, err := sample.NewMinOfK(k)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// mustPareto builds the noise model or fails the test.
func mustPareto(t *testing.T, alpha, scale float64) noise.Model {
	t.Helper()
	m, err := noise.NewIIDPareto(alpha, scale)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serveAsync runs Serve on its own goroutine. Every caller closes the
// listener via defer, and Serve returns nil on net.ErrClosed, so the error
// is deliberately dropped.
func serveAsync(l net.Listener, srv *Server) {
	go func() {
		//paralint:allow errdiscipline Serve returns nil once the test closes the listener
		_ = Serve(l, srv)
	}()
}

func gs2Params() []space.Parameter {
	return []space.Parameter{
		space.IntParam("ntheta", 8, 64),
		space.IntParam("negrid", 4, 32),
		space.DiscreteParam("nodes", 1, 2, 4, 8, 16, 32, 64),
	}
}

// runClients simulates nClients SPMD processes measuring db (noiselessly,
// so convergence is guaranteed and the test exercises the protocol) until
// the session converges or the wall-clock deadline expires.
func runClients(t *testing.T, srv *Server, name string, db objective.Function, nClients int, timeout time.Duration) {
	t.Helper()
	var m noise.Model = noise.None{}
	var wg sync.WaitGroup
	var once sync.Once
	deadline := time.Now().Add(timeout)
	stop := make(chan struct{})
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := dist.NewRNG(int64(1000 + id))
			for time.Now().Before(deadline) {
				select {
				case <-stop:
					return
				default:
				}
				fr, err := srv.Fetch(name)
				if err != nil {
					t.Errorf("client %d fetch: %v", id, err)
					return
				}
				if fr.Converged {
					once.Do(func() { close(stop) })
					return
				}
				y := m.Perturb(db.Eval(fr.Point), rng)
				if fr.Tag != 0 {
					if err := srv.Report(name, fr.Tag, y); err != nil {
						// Tag may have completed concurrently via another
						// client's re-issued sample; that is expected.
						continue
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestRegisterValidation(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("", gs2Params()); err == nil {
		t.Error("empty name should fail")
	}
	if err := srv.Register("s", nil); err == nil {
		t.Error("empty params should fail")
	}
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// Re-register with identical params joins.
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Errorf("rejoin failed: %v", err)
	}
	// Re-register with different params is rejected.
	if err := srv.Register("s", []space.Parameter{space.IntParam("x", 0, 1)}); err == nil {
		t.Error("mismatched rejoin should fail")
	}
	if len(srv.Sessions()) != 1 {
		t.Errorf("sessions = %v", srv.Sessions())
	}
}

func TestUnknownSession(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if _, err := srv.Fetch("nope"); err == nil {
		t.Error("fetch unknown session should fail")
	}
	if err := srv.Report("nope", 1, 1); err == nil {
		t.Error("report unknown session should fail")
	}
	if _, _, _, err := srv.Best("nope"); err == nil {
		t.Error("best unknown session should fail")
	}
	if err := srv.Stop("nope"); err == nil {
		t.Error("stop unknown session should fail")
	}
}

func TestInProcessTuningSession(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 31, Coverage: 1})
	est := mustMinOfK(t, 2)
	srv := NewServer(ServerOptions{Estimator: est})
	defer srv.Close()
	if err := srv.Register("gs2", gs2Params()); err != nil {
		t.Fatal(err)
	}
	runClients(t, srv, "gs2", db, 8, 30*time.Second)
	best, _, conv, err := srv.Best("gs2")
	if err != nil {
		t.Fatal(err)
	}
	if !conv {
		t.Fatal("session did not converge")
	}
	if !db.Space().Admissible(best) {
		t.Fatalf("best %v not admissible", best)
	}
	// Tuning should beat the starting centre on the noise-free surface.
	if db.Eval(best) > db.Eval(db.Space().Center())+0.2 {
		t.Errorf("tuned config %v (%.3f) worse than centre (%.3f)",
			best, db.Eval(best), db.Eval(db.Space().Center()))
	}
	// After convergence every fetch returns tag 0 with the best point.
	fr, err := srv.Fetch("gs2")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Tag != 0 || !fr.Converged || !fr.Point.Equal(best) {
		t.Errorf("post-convergence fetch = %+v", fr)
	}
	// Tag-0 reports are accepted and ignored.
	if err := srv.Report("gs2", 0, 123); err != nil {
		t.Errorf("tag-0 report: %v", err)
	}
}

func TestReportUnknownTag(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Report("s", 999999, 1.0); err == nil {
		t.Error("unknown tag should fail")
	}
}

// seqAPI is the one-sample-at-a-time client surface shared by *Server and
// *Client.
type seqAPI interface {
	Register(name string, params []space.Parameter) error
	Fetch(name string) (FetchResult, error)
	Report(name string, tag uint64, value float64) error
}

// A client that fetches and reports one sample at a time never finds its
// session idle, in-process or over PHWIRE1: Register returns with the first
// batch proposed, and the report that completes a batch returns with the
// next one, so no fetch before convergence answers Tag 0.
func TestSequentialClientNeverIdles(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 1, Coverage: 1})
	model := mustPareto(t, 1.7, 0.3)
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	c, _ := dialTest(t, srv)
	for _, path := range []struct {
		name string
		api  seqAPI
	}{{"in-process", srv}, {"phwire1", c}} {
		t.Run(path.name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("%s-%d", path.name, i)
				if err := path.api.Register(name, gs2Params()); err != nil {
					t.Fatal(err)
				}
				rng := dist.NewRNG(int64(i))
				for fetches := 0; ; fetches++ {
					if fetches == 100000 {
						t.Fatalf("%s: no convergence after %d fetches", name, fetches)
					}
					fr, err := path.api.Fetch(name)
					if err != nil {
						t.Fatal(err)
					}
					if fr.Converged {
						break
					}
					if fr.Tag == 0 {
						t.Fatalf("%s: fetch %d answered Tag 0 before convergence", name, fetches)
					}
					if err := path.api.Report(name, fr.Tag, model.Perturb(db.Eval(fr.Point), rng)); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

func TestLostClientDoesNotStall(t *testing.T) {
	// One client fetches work and never reports; another client must still
	// be able to drive the batch to completion via re-issued candidates.
	db := objective.GenerateGS2(objective.GS2Config{Seed: 7, Coverage: 1})
	est := mustMinOfK(t, 1)
	srv := NewServer(ServerOptions{Estimator: est})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// The "lost" client grabs several work items and vanishes.
	for i := 0; i < 3; i++ {
		if _, err := srv.Fetch("s"); err != nil {
			t.Fatal(err)
		}
	}
	// A healthy client still finishes the tuning run.
	runClients(t, srv, "s", db, 2, 30*time.Second)
	_, _, conv, err := srv.Best("s")
	if err != nil {
		t.Fatal(err)
	}
	if !conv {
		t.Error("session stalled after client loss")
	}
}

func TestStopAbandonsSession(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Stop("s"); err != nil {
		t.Fatal(err)
	}
	// Double stop is fine.
	if err := srv.Stop("s"); err != nil {
		t.Fatal(err)
	}
	// The optimiser goroutine should wind down; give it a moment and make
	// sure Fetch either errors or serves the best point without blocking.
	deadline := time.After(2 * time.Second)
	doneCh := make(chan struct{})
	go func() {
		//paralint:allow errdiscipline only non-blocking completion matters; the result is irrelevant after Stop
		_, _ = srv.Fetch("s")
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-deadline:
		t.Fatal("Fetch blocked after Stop")
	}
}

// A session cannot start once Close has begun: Close stops only the
// sessions it finds, so one registered after it would run on with nothing
// to join it (and the package's leak check would fail).
func TestNoSessionStartsAfterClose(t *testing.T) {
	srv := NewServer(ServerOptions{})
	if err := srv.Register("a", gs2Params()); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := srv.Register("b", gs2Params()); err == nil {
		t.Error("Register after Close succeeded")
	}
	if got := srv.Sessions(); len(got) != 1 || got[0] != "a" {
		t.Errorf("sessions after Close = %v, want [a]", got)
	}
}

func TestCustomAlgorithmFactoryError(t *testing.T) {
	srv := NewServer(ServerOptions{
		NewAlgorithm: func(s *space.Space) (core.Algorithm, error) {
			return core.NewPRO(core.Options{}) // missing space -> error
		},
	})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err == nil {
		t.Error("factory error should propagate")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 13, Coverage: 1})
	est := mustMinOfK(t, 1)
	srv := NewServer(ServerOptions{Estimator: est})
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Register("net", gs2Params()); err != nil {
		t.Fatal(err)
	}
	m := mustPareto(t, 1.7, 0.1)
	rng := dist.NewRNG(9)
	converged := false
	deadline := time.Now().Add(30 * time.Second)
	for !converged && time.Now().Before(deadline) {
		fr, err := cl.Fetch("net")
		if err != nil {
			t.Fatal(err)
		}
		if fr.Converged {
			converged = true
			break
		}
		if !db.Space().Admissible(fr.Point) {
			t.Fatalf("server sent inadmissible point %v", fr.Point)
		}
		y := m.Perturb(db.Eval(fr.Point), rng)
		if fr.Tag != 0 {
			if err := cl.Report("net", fr.Tag, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !converged {
		t.Fatal("TCP session did not converge")
	}
	best, val, conv, err := cl.Best("net")
	if err != nil {
		t.Fatal(err)
	}
	if !conv || !db.Space().Admissible(best) || val <= 0 {
		t.Errorf("best = %v, %g, conv=%v", best, val, conv)
	}
}

func TestTCPErrors(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Unknown session surfaces as a client error.
	if _, err := cl.Fetch("missing"); err == nil {
		t.Error("fetch of missing session should fail over TCP")
	}
	// PHWIRE1 is the only client protocol.
	if c, err := DialWith(l.Addr().String(), DialOptions{Wire: "json"}); err == nil {
		_ = c.Close()
		t.Error(`DialWith accepted Wire "json"`)
	}
	// Unknown parameter kind rejected.
	if _, err := fromWireParams([]wireParam{{Name: "x", Kind: "weird"}}); err == nil {
		t.Error("unknown kind should fail")
	}
	// Kind round-trip.
	ps, err := fromWireParams(toWireParams(gs2Params()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 || ps[2].Kind != space.Discrete || len(ps[2].Values) != 7 {
		t.Errorf("round-trip params = %+v", ps)
	}
}

func TestDispatchUnknownOp(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	resp := dispatch(srv, &request{Op: 0xee}, nil)
	if resp.OK || resp.Error == "" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestRunLoop(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 3, Coverage: 1})
	est := mustMinOfK(t, 1)
	srv := NewServer(ServerOptions{Estimator: est})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("loop", gs2Params()); err != nil {
		t.Fatal(err)
	}
	best, err := RunLoop(cl, "loop", func(p space.Point) (float64, error) {
		return db.Eval(p), nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Space().Admissible(best) {
		t.Fatalf("best %v not admissible", best)
	}
	if db.Eval(best) > db.Eval(db.Space().Center()) {
		t.Errorf("RunLoop result %v worse than the centre", best)
	}
}

func TestRunLoopValidation(t *testing.T) {
	if _, err := RunLoop(nil, "s", nil, 10); err == nil {
		t.Error("nil measure should fail")
	}
}

func TestRunLoopMeasureError(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)
	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("err", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLoop(cl, "err", func(space.Point) (float64, error) {
		return 0, errors.New("sensor broken")
	}, 100); err == nil {
		t.Error("measurement error should abort the loop")
	}
}

func TestStatsOp(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if _, err := srv.Stats("missing"); err == nil {
		t.Error("stats of unknown session should fail")
	}
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Stats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "s" {
		t.Errorf("stats = %+v", st)
	}
	// Over TCP.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)
	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	wireStats, err := cl.Stats("s")
	if err != nil {
		t.Fatal(err)
	}
	if wireStats.Name != "s" {
		t.Errorf("wire stats = %+v", wireStats)
	}
	if _, err := cl.Stats("missing"); err == nil {
		t.Error("wire stats of unknown session should fail")
	}
}

// Wire parameters survive a marshalling round trip for arbitrary admissible
// parameter shapes.
func TestWireParamRoundTripProperty(t *testing.T) {
	f := func(lo, hi int16, vals []float64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		params := []space.Parameter{
			space.IntParam("i", int(lo), int(hi)),
			space.ContinuousParam("c", float64(lo), float64(hi)+1),
		}
		if len(vals) > 0 {
			ok := true
			for _, v := range vals {
				if v != v || v > 1e300 || v < -1e300 { // NaN or overflow-prone
					ok = false
				}
			}
			if ok {
				params = append(params, space.DiscreteParam("d", vals...))
			}
		}
		out, err := fromWireParams(toWireParams(params))
		if err != nil {
			return false
		}
		if len(out) != len(params) {
			return false
		}
		for i := range out {
			if out[i].Name != params[i].Name || out[i].Kind != params[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
