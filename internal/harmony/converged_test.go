package harmony

import (
	"errors"
	"math"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"paratune/internal/alloccheck"
	"paratune/internal/core"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// dialCounting serves srv on loopback through an inboundListener and
// connects a Client to it; frames reports how many request frames the server
// has read from the client's connection so far.
func dialCounting(t *testing.T, srv *Server) (c *Client, frames func() int) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	l := &inboundListener{Listener: raw}
	serveAsync(l, srv)
	c, err = DialWith(raw.Addr().String(), DialOptions{
		Retries: 8, Backoff: 5 * time.Millisecond, Timeout: 5 * time.Second, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, func() int {
		if n := c.Reconnects(); n != 0 {
			t.Fatalf("the client reconnected %d times; its frames are counted on one connection", n)
		}
		return requestFrames(t, l.inbound(0))
	}
}

// sameAnswer fails t unless got is want bit for bit: one converged entry,
// tag 0, the same point coordinates down to the last bit.
func sameAnswer(t *testing.T, what string, got, want []FetchResult) {
	t.Helper()
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("%s: got %+v, want %+v, one entry each", what, got, want)
	}
	g, w := got[0], want[0]
	same := g.Tag == w.Tag && g.Converged == w.Converged && len(g.Point) == len(w.Point)
	for i := 0; same && i < len(g.Point); i++ {
		same = math.Float64bits(g.Point[i]) == math.Float64bits(w.Point[i])
	}
	if !same || g.Tag != 0 || !g.Converged {
		t.Fatalf("%s: got %+v, want %+v, a converged tag-0 answer", what, g, w)
	}
}

// TestConvergedReplyAnswersNextFetch counts PHWIRE1 request frames: a
// register, report or reportn reply that finds its session converged
// carries the session's answer, and the client serves the next FetchN from
// it, once, bit-identical to the server's own answer.
func TestConvergedReplyAnswersNextFetch(t *testing.T) {
	t.Run("warm", func(t *testing.T) {
		srv, best := warmServer(t, ServerOptions{})
		c, frames := dialCounting(t, srv)
		if err := c.Register("w", gs2Params()); err != nil {
			t.Fatal(err)
		}
		got, err := c.FetchN("w", 16)
		if err != nil {
			t.Fatal(err)
		}
		if n := frames(); n != 1 {
			t.Fatalf("a fully warm session cost %d frames from Register to its converged FetchN, want 1", n)
		}
		want, err := srv.FetchN("w", 16)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "local FetchN vs Server.FetchN", got, want)
		if !got[0].Point.Equal(best) {
			t.Errorf("warm session answered %v, the cold run's best is %v", got[0].Point, best)
		}
		// The answer is used once: the next FetchN asks the server, whose
		// answer Stop leaves the same.
		if err := srv.Stop("w"); err != nil {
			t.Fatal(err)
		}
		again, err := c.FetchN("w", 16)
		if err != nil {
			t.Fatal(err)
		}
		if n := frames(); n != 2 {
			t.Errorf("the second FetchN left %d frames on the wire in all, want 2", n)
		}
		sameAnswer(t, "FetchN after Stop", again, want)
	})

	t.Run("cold", func(t *testing.T) {
		srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
		defer srv.Close()
		sp, err := space.New(gs2Params()...)
		if err != nil {
			t.Fatal(err)
		}
		f := objective.NewSphere(sp, space.Point{32, 16, 8}, 1)
		c, frames := dialCounting(t, srv)
		if err := c.Register("c", gs2Params()); err != nil {
			t.Fatal(err)
		}
		// Every FetchN before convergence is one frame; the one after the
		// converging ReportN is none.
		var got []FetchResult
		for rounds := 0; ; rounds++ {
			if rounds > 10000 {
				t.Fatal("session did not converge")
			}
			before := frames()
			if got, err = c.FetchN("c", 16); err != nil {
				t.Fatal(err)
			}
			fetched := frames() - before
			if got[0].Tag == 0 {
				if !got[0].Converged || fetched != 0 {
					t.Fatalf("round %d: tag-0 answer %+v took %d frames, want a converged answer taking 0", rounds, got[0], fetched)
				}
				break
			}
			if fetched != 1 {
				t.Fatalf("round %d: a granting FetchN took %d frames", rounds, fetched)
			}
			items := make([]ReportItem, len(got))
			for i, fr := range got {
				items[i] = ReportItem{Tag: fr.Tag, Value: f.Eval(fr.Point)}
			}
			if _, err := c.ReportN("c", items); err != nil {
				t.Fatal(err)
			}
		}
		want, err := srv.FetchN("c", 16)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "local FetchN vs Server.FetchN", got, want)
	})

	t.Run("expired", func(t *testing.T) {
		clk := NewFakeClock(time.Unix(0, 0))
		srv, _ := warmServer(t, ServerOptions{IdleTimeout: time.Hour, MeasurementTimeout: -1, Clock: clk})
		c, frames := dialCounting(t, srv)
		if err := c.Register("w", gs2Params()); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "expiry timer to arm", func() bool { return clk.Waiters() > 0 })
		clk.Advance(2 * time.Hour)
		waitUntil(t, "idle session to expire", func() bool { return len(srv.Sessions()) == 0 })
		// The session is gone, but the reply that found it converged came
		// first: the client answers from it once, then learns of the loss.
		got, err := c.FetchN("w", 16)
		if err != nil || len(got) != 1 || !got[0].Converged || frames() != 1 {
			t.Fatalf("FetchN in the expiry window = %+v, %v after %d frames, want the kept converged answer and no new frame", got, err, frames())
		}
		if _, err := c.FetchN("w", 16); !errors.Is(err, ErrUnknownSession) {
			t.Fatalf("FetchN after the kept answer: err = %v, want unknown session", err)
		}
	})
}

// TestConvergedAnswersConcurrentCallers shares one Client among goroutines
// that each register warm sessions and fetch them: every fetch gets its own
// session's converged answer, and the kept answers need no lock but the
// client's own (run it with -race).
func TestConvergedAnswersConcurrentCallers(t *testing.T) {
	srv, best := warmServer(t, ServerOptions{})
	c, _ := dialTest(t, srv)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				name := "w-" + strconv.Itoa(g) + "-" + strconv.Itoa(i)
				if err := c.Register(name, gs2Params()); err != nil {
					t.Error(err)
					return
				}
				frs, err := c.FetchN(name, 16)
				if err != nil || len(frs) != 1 || !frs[0].Converged || !frs[0].Point.Equal(best) {
					t.Errorf("%s: FetchN = %+v, %v, want the converged answer %v", name, frs, err, best)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// failingAlg is benchAlg failing in Init, so its session ends with a run
// error.
type failingAlg struct{ benchAlg }

func (*failingAlg) Init(core.Evaluator) error { return errors.New("init failed") }

// TestConvergedReplyMatchesFetch checks the rule on every kind of session
// end: a register, report or reportn reply carries the converged answer
// exactly when the session's next FetchN answers {best, tag 0, converged},
// and then carries that answer bit for bit. A session stopped mid-batch has
// converged but still grants its empty slots, and one whose optimiser failed
// answers FetchN with the error; neither reply carries an answer.
func TestConvergedReplyMatchesFetch(t *testing.T) {
	failing := NewServer(ServerOptions{NewAlgorithm: func(*space.Space) (core.Algorithm, error) {
		return &failingAlg{}, nil
	}})
	defer failing.Close()
	plain := NewServer(ServerOptions{})
	defer plain.Close()
	warm, _ := warmServer(t, ServerOptions{})
	cases := []struct {
		name string
		srv  *Server
		stop bool // Stop the session after Register
	}{
		{"pending", plain, false},
		{"stopped-mid-batch", plain, true},
		{"run-error", failing, false},
		{"warm", warm, false},
		{"warm-stopped", warm, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.srv.Register(tc.name, gs2Params()); err != nil {
				t.Fatal(err)
			}
			if tc.stop {
				if err := tc.srv.Stop(tc.name); err != nil {
					t.Fatal(err)
				}
			}
			for _, req := range []request{
				{Op: opRegister, Session: tc.name, Params: gs2Params()},
				{Op: opReportN, Session: tc.name, Reports: []ReportItem{{Value: 1}}},
			} {
				resp := dispatch(tc.srv, &req, nil)
				if !resp.OK {
					t.Fatalf("%s: %s", req.Op, resp.Error)
				}
				fetch, err := tc.srv.FetchN(tc.name, 16)
				answered := err == nil && len(fetch) == 1 && fetch[0].Tag == 0 && fetch[0].Converged
				if resp.Converged != answered {
					t.Fatalf("%s reply converged=%v, but the next FetchN answered %+v, %v", req.Op, resp.Converged, fetch, err)
				}
				if answered {
					sameAnswer(t, req.Op.String()+" reply", []FetchResult{{Point: resp.Point, Converged: true}}, fetch)
				} else if resp.Point != nil {
					t.Fatalf("%s reply without the converged flag carries point %v", req.Op, resp.Point)
				}
			}
		})
	}
}

// TestClientLocalFetchNAllocs pins a locally answered FetchN at one
// allocation, the slice it returns.
func TestClientLocalFetchNAllocs(t *testing.T) {
	c := &Client{}
	best := space.Point{32, 16, 8}
	var got []FetchResult
	alloccheck.Guard(t, "harmony.Client.FetchN/local", 1, func() {
		c.mu.Lock()
		c.req = request{Op: opRegister, Session: "w"}
		c.resp = response{OK: true, Point: best, Converged: true}
		c.keepAnswerLocked(&c.req)
		c.mu.Unlock()
		var err error
		if got, err = c.FetchN("w", 16); err != nil {
			t.Fatal(err)
		}
	})
	if len(got) != 1 || got[0].Tag != 0 || !got[0].Converged || !got[0].Point.Equal(best) {
		t.Fatalf("local FetchN = %+v", got)
	}
	if len(c.answers) != 0 {
		t.Errorf("%d answers kept after the fetch took the only one", len(c.answers))
	}
}

// TestDispatchConvergedRegisterAllocs pins that a register reply carrying
// the converged answer allocates no more than one that does not: the best
// point is encoded from the session, not cloned.
func TestDispatchConvergedRegisterAllocs(t *testing.T) {
	req := request{Op: opRegister, Session: "s", Params: gs2Params()}
	cold := NewServer(ServerOptions{})
	defer cold.Close()
	if err := cold.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	var resp response
	base := testing.AllocsPerRun(100, func() { resp = dispatch(cold, &req, nil) })
	if !resp.OK || resp.Converged || resp.Point != nil {
		t.Fatalf("register joining a pending session replied %+v", resp)
	}
	warm, best := warmServer(t, ServerOptions{})
	if err := warm.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	alloccheck.Guard(t, "harmony.dispatch/register-converged", base, func() { resp = dispatch(warm, &req, nil) })
	if !resp.OK || !resp.Converged || !space.Point(resp.Point).Equal(best) {
		t.Fatalf("register joining a converged session replied %+v, want its best %v", resp, best)
	}
}

// TestConvergedAnswersBounded registers more converged sessions than a
// client keeps answers for and fetches none of them: the table stays at its
// bound, and the newest answer is still served without a round trip.
func TestConvergedAnswersBounded(t *testing.T) {
	srv, _ := warmServer(t, ServerOptions{})
	c, frames := dialCounting(t, srv)
	n := maxConvergedAnswers + 100
	for i := 0; i < n; i++ {
		if err := c.Register("w-"+strconv.Itoa(i), gs2Params()); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	kept := len(c.answers)
	c.mu.Unlock()
	if kept == 0 || kept > maxConvergedAnswers {
		t.Fatalf("after %d converged registrations the client keeps %d answers, want 1..%d", n, kept, maxConvergedAnswers)
	}
	before := frames()
	got, err := c.FetchN("w-"+strconv.Itoa(n-1), 16)
	if err != nil || len(got) != 1 || !got[0].Converged || frames() != before {
		t.Fatalf("FetchN of the newest session = %+v, %v with %d new frames, want its kept answer", got, err, frames()-before)
	}
}
