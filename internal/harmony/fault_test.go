package harmony

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paratune/internal/dist"
	"paratune/internal/fault"
	"paratune/internal/frame"
	"paratune/internal/objective"
	"paratune/internal/space"
)

// --- satellite: value validation at the measurement boundary ---

func TestReportRejectsInvalidValues(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		err := srv.Report("s", 1, bad)
		if !errors.Is(err, ErrInvalidValue) {
			t.Errorf("Report(%g) = %v, want ErrInvalidValue", bad, err)
		}
		// Tag-0 reports are validated too: garbage is garbage.
		if err := srv.Report("s", 0, bad); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("tag-0 Report(%g) = %v, want ErrInvalidValue", bad, err)
		}
	}
}

func TestWireRejectsInvalidValueWithCode(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// A reportn reply stays OK and counts the rejection; it carries the
	// rejection's error and code, which a one-item frame's Client.Report
	// returns.
	resp := dispatch(srv, &request{Op: opReportN, Session: "s", Reports: []ReportItem{{Tag: 1, Value: -3}}}, nil)
	if !resp.OK || resp.Rejected != 1 || resp.Code != "invalid_value" {
		t.Errorf("resp = %+v, want one rejection with structured invalid_value error", resp)
	}
	// Over a real connection the client can classify it. PHWIRE1 carries
	// NaN and ±Inf bit for bit, so they reach the server's validation too.
	cl, _ := dialTest(t, srv)
	for _, bad := range []float64{-3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := cl.Report("s", 1, bad); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("wire report of %g: err = %v, want invalid_value", bad, err)
		}
	}
}

// fetchWork fetches a work item, which exists once Register has returned.
func fetchWork(t *testing.T, srv *Server, name string) FetchResult {
	t.Helper()
	fr, err := srv.Fetch(name)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Tag == 0 {
		t.Fatal("no work item after Register")
	}
	return fr
}

// --- idempotent reports (sample slots) ---

// TestReportClassifiedBySlot delivers reports for the slots of one batch:
// one slot's value three times counts once, a new value for a filled slot
// is surplus, another slot counts separately, and a tag never issued is
// rejected.
func TestReportClassifiedBySlot(t *testing.T) {
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	frs, err := srv.FetchN("s", 2)
	if err != nil {
		t.Fatal(err)
	}
	tag, other := frs[0].Tag, frs[1].Tag
	s := srv.lookup("s")
	// state reads the slot tag names; a slot that is gone reads as empty.
	state := func() (slot float64, filled, recorded int) {
		s.mu.Lock()
		if c, j := s.slotLocked(tag); c != nil {
			slot, filled = c.obs[j], c.filled
		}
		recorded = s.batchObs
		s.mu.Unlock()
		return slot, filled, recorded
	}
	for i := 0; i < 3; i++ {
		if err := srv.Report("s", tag, 0.5); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	if slot, filled, recorded := state(); slot != 0.5 || filled != 1 || recorded != 1 {
		t.Errorf("after 3 deliveries of one slot: slot %v, %d filled, %d recorded; want 0.5, 1, 1", slot, filled, recorded)
	}
	if err := srv.Report("s", tag, 0.25); err != nil {
		t.Fatalf("surplus report refused: %v", err)
	}
	if slot, filled, recorded := state(); slot != 0.5 || filled != 1 || recorded != 2 {
		t.Errorf("after a surplus report: slot %v, %d filled, %d recorded; want 0.5 kept, 1, 2", slot, filled, recorded)
	}
	if err := srv.Report("s", other, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, recorded := state(); recorded != 3 {
		t.Errorf("another slot's report: %d recorded, want 3", recorded)
	}
	st, err := srv.Stats("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Report("s", st.NextTag, 0.5); err == nil {
		t.Errorf("report for tag %d, never issued, was accepted", st.NextTag)
	}
}

// TestClientReportFramesCarrySlotsOnly reads the frames a Client's Report
// and ReportN put on the wire: each decodes to exactly the caller's tags and
// values, nothing is added to them, and the caller's items are not touched.
func TestClientReportFramesCarrySlotsOnly(t *testing.T) {
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
	defer srv.Close()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &inboundListener{Listener: raw}
	defer l.Close()
	serveAsync(l, srv)
	c, err := DialWith(raw.Addr().String(), DialOptions{Timeout: 5 * time.Second, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	frs, err := c.FetchN("s", 3)
	if err != nil {
		t.Fatal(err)
	}
	items := []ReportItem{{Tag: frs[0].Tag, Value: 1.5}, {Tag: frs[1].Tag, Value: 2.5}}
	sent := append([]ReportItem(nil), items...)
	if _, err := c.ReportN("s", items); err != nil {
		t.Fatal(err)
	}
	if err := c.Report("s", frs[2].Tag, 3.5); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, sent) {
		t.Errorf("ReportN changed the caller's items to %+v", items)
	}
	in := bytes.TrimPrefix(l.inbound(0), []byte(WireMagic))
	var reqs []request
	for len(in) > 0 {
		payload, used, err := frame.Split(in, frame.MaxPayload)
		if err != nil {
			t.Fatal(err)
		}
		var req request
		if err := decodeRequest(payload, &req); err != nil {
			t.Fatalf("frame %d: %v", len(reqs), err)
		}
		reqs = append(reqs, req)
		in = in[used:]
	}
	if len(reqs) != 4 {
		t.Fatalf("client sent %d frames, want register, fetchn and two reportn", len(reqs))
	}
	if got := reqs[2]; got.Op != opReportN || !reflect.DeepEqual(got.Reports, sent) {
		t.Errorf("reportn frame carried %+v, want %+v", got.Reports, sent)
	}
	if got := reqs[3]; got.Op != opReportN || !reflect.DeepEqual(got.Reports, []ReportItem{{Tag: frs[2].Tag, Value: 3.5}}) {
		t.Errorf("Report sent %s carrying %+v, want reportn of tag %d value 3.5", got.Op, got.Reports, frs[2].Tag)
	}
}

// dropReplyListener severs its first accepted connection in place of the
// server's nth reply on it, so the client sees a request vanish after the
// server applied it.
type dropReplyListener struct {
	net.Listener
	nth      int
	accepted atomic.Int32
}

func (l *dropReplyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.accepted.Add(1) != 1 {
		return c, err
	}
	return &dropReplyConn{Conn: c, left: l.nth}, nil
}

// dropReplyConn closes itself instead of making its nth write; only the
// connection's handler goroutine writes, so left needs no lock.
type dropReplyConn struct {
	net.Conn
	left int
}

func (c *dropReplyConn) Write(b []byte) (int, error) {
	if c.left--; c.left == 0 {
		_ = c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// TestReportNRetriedOverReconnectCountedOnce loses the reply to a reportn
// frame the server already applied: the client reconnects and resends the
// same frame, whose items find their slots filled with the same values, and
// every measurement is counted once. At K=1 the frame completes the batch,
// so the resend names retired tags: it is accepted whole and records
// nothing in the next batch.
func TestReportNRetriedOverReconnectCountedOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		k        int
		complete bool
	}{{"binary", 3, false}, {"batch-completing", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, tc.k)})
			defer srv.Close()
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			// Replies on the first connection: register, fetchn, then the
			// reportn reply that is lost.
			serveAsync(&dropReplyListener{Listener: raw, nth: 3}, srv)
			c, err := DialWith(raw.Addr().String(), DialOptions{
				Retries: 8, Backoff: 5 * time.Millisecond, Timeout: 5 * time.Second, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Register("s", gs2Params()); err != nil {
				t.Fatal(err)
			}
			pendingBatch(t, srv, "s", 1)
			frs, err := c.FetchN("s", 16)
			if err != nil {
				t.Fatal(err)
			}
			items := make([]ReportItem, len(frs))
			for i, fr := range frs {
				items[i] = ReportItem{Tag: fr.Tag, Value: 1 + float64(i)}
			}
			st, err := srv.Stats("s")
			if err != nil {
				t.Fatal(err)
			}
			if completes := st.Pending*tc.k == len(items); completes != tc.complete {
				t.Fatalf("%d items for %d candidates at K=%d: completing the batch is %v, want %v",
					len(items), st.Pending, tc.k, completes, tc.complete)
			}
			res, err := c.ReportN("s", items)
			if err != nil {
				t.Fatal(err)
			}
			if n := c.Reconnects(); n != 1 {
				t.Fatalf("client reconnected %d times, want 1: the reply was not lost", n)
			}
			if res != (BatchReportResult{Accepted: len(items)}) {
				t.Errorf("retried ReportN = %+v, want all %d accepted", res, len(items))
			}
			s, err := srv.session("s")
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			recorded := s.batchObs
			s.mu.Unlock()
			want := len(items)
			if tc.complete {
				want = 0 // the next batch's count
			}
			if recorded != want {
				t.Errorf("server recorded %d measurements from a twice-delivered frame of %d, want %d", recorded, len(items), want)
			}
		})
	}
}

// --- satellite: the session-wedge regression ---

// TestClientDeathMidBatchDoesNotWedge kills the only client mid-batch: the
// deadline/reissue path must still drive the session to convergence through
// forced batch completion, covering the direct in-process API.
func TestClientDeathMidBatchDoesNotWedge(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 21, Coverage: 1})
	est := mustMinOfK(t, 2)
	srv := NewServer(ServerOptions{
		Estimator:          est,
		MeasurementTimeout: 20 * time.Millisecond,
		MaxReissues:        1,
	})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// The doomed client: fetches work, reports a single measurement, then
	// dies holding the rest of the batch.
	died := make(chan struct{})
	go func() {
		defer close(died)
		for i := 0; i < 3; i++ {
			fr, err := srv.Fetch("s")
			if err != nil || fr.Tag == 0 {
				return
			}
			if i == 0 {
				//paralint:allow errdiscipline the client dies mid-batch by design; its one report is fire-and-forget
				_ = srv.Report("s", fr.Tag, db.Eval(fr.Point))
			}
		}
	}()
	<-died
	// No client remains. The session must still converge (degraded) instead
	// of blocking forever on the incomplete batch.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, _, conv, err := srv.Best("s")
		if err != nil {
			t.Fatal(err)
		}
		if conv {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("session wedged after client death: no convergence within 30s")
}

// TestLateClientRecoversReissuedBatch loses one client mid-batch and checks a
// replacement client (arriving after the loss) completes tuning with real
// measurements via the reissue path.
func TestLateClientRecoversReissuedBatch(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 23, Coverage: 1})
	est := mustMinOfK(t, 1)
	srv := NewServer(ServerOptions{
		Estimator:          est,
		MeasurementTimeout: 50 * time.Millisecond,
		MaxReissues:        100, // plenty: the replacement client reports real values
	})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// Doomed client grabs three work items and vanishes.
	for i := 0; i < 3; i++ {
		if _, err := srv.Fetch("s"); err != nil {
			t.Fatal(err)
		}
	}
	runClients(t, srv, "s", db, 2, 30*time.Second)
	_, _, conv, err := srv.Best("s")
	if err != nil {
		t.Fatal(err)
	}
	if !conv {
		t.Error("session did not converge after client loss")
	}
}

// --- session idle expiry ---

// waitUntil polls cond until it holds, failing the test after a scheduling
// grace period. It waits only for goroutine scheduling, never for timers:
// all time-dependent logic runs on the FakeClock.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestIdleSessionExpires(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	srv := NewServer(ServerOptions{
		IdleTimeout:        time.Hour,
		MeasurementTimeout: -1, // disabled: expiry alone drives this test
		Clock:              clk,
	})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// Wait for the expiry goroutine to arm its timer, then jump straight
	// past the idle deadline — no real sleeps are involved.
	waitUntil(t, "expiry timer to arm", func() bool { return clk.Waiters() > 0 })
	clk.Advance(2 * time.Hour)
	waitUntil(t, "idle session to expire", func() bool { return len(srv.Sessions()) == 0 })
	// Expired: the session is gone and its resources released.
	if _, err := srv.Fetch("s"); err == nil {
		t.Error("fetch of expired session should fail")
	}
}

func TestActiveSessionSurvivesIdleChecks(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	srv := NewServer(ServerOptions{
		IdleTimeout:        time.Hour,
		MeasurementTimeout: -1,
		Clock:              clk,
	})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// Several idle checks fire, but activity keeps refreshing lastUsed, so
	// the session must survive every one of them.
	for i := 0; i < 8; i++ {
		waitUntil(t, "expiry timer to arm", func() bool { return clk.Waiters() > 0 })
		if _, err := srv.Fetch("s"); err != nil {
			t.Fatal(err)
		}
		clk.Advance(30 * time.Minute) // past the 15-minute check period, inside the idle budget
	}
	if len(srv.Sessions()) != 1 {
		t.Fatal("active session expired despite continuous activity")
	}
}

// Close joins what the server started: once it returns, every session's
// optimiser goroutine and the sweeper have exited. The count is read at
// once, without waiting. It runs on one P: a goroutine's last act before
// exiting is to close the channel Close waits on, and with a second P Close
// could resume there while that goroutine is still a few instructions from
// exit.
func TestCloseJoinsSessionGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := runtime.NumGoroutine()
	srv := NewServer(ServerOptions{IdleTimeout: time.Hour})
	for i := 0; i < 50; i++ {
		if err := srv.Register(fmt.Sprintf("s%02d", i), gs2Params()); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Close, %d before NewServer", after, before)
	}
}

// --- checkpoint / restore ---

// driveDeterministic runs a single-threaded fetch/measure/report loop against
// srv, recording the trajectory of distinct best points, until convergence or
// the iteration cap. Returns the trajectory and the converged best.
func driveDeterministic(t *testing.T, srv *Server, name string, db objective.Function, cap int, stopAfter int, reported *int) ([]string, space.Point, bool) {
	t.Helper()
	var traj []string
	push := func(p space.Point) {
		s := p.String()
		if len(traj) == 0 || traj[len(traj)-1] != s {
			traj = append(traj, s)
		}
	}
	for i := 0; i < cap; i++ {
		if stopAfter > 0 && *reported >= stopAfter {
			return traj, nil, false
		}
		fr, err := srv.Fetch(name)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Converged {
			best, _, _, err := srv.Best(name)
			if err != nil {
				t.Fatal(err)
			}
			push(best)
			return traj, best, true
		}
		if fr.Tag != 0 {
			if err := srv.Report(name, fr.Tag, db.Eval(fr.Point)); err == nil {
				*reported++
			}
		}
		best, _, _, err := srv.Best(name)
		if err != nil {
			t.Fatal(err)
		}
		push(best)
	}
	t.Fatal("iteration cap reached before convergence")
	return nil, nil, false
}

// TestCheckpointRestoreTrajectoryIdentical checkpoints a mid-tuning session,
// restores it into a fresh Server, and asserts the best-point trajectory is
// identical to an uninterrupted run with the same seeds — the simplex is not
// reset by the restart.
func TestCheckpointRestoreTrajectoryIdentical(t *testing.T) {
	newSrv := func() *Server {
		est := mustMinOfK(t, 1)
		return NewServer(ServerOptions{Estimator: est})
	}
	db := objective.GenerateGS2(objective.GS2Config{Seed: 41, Coverage: 1})

	// Uninterrupted reference run.
	ref := newSrv()
	defer ref.Close()
	if err := ref.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	n0 := 0
	refTraj, refBest, _ := driveDeterministic(t, ref, "s", db, 1<<20, 0, &n0)

	// Interrupted run: drive 40 reports, checkpoint, kill, restore, resume.
	a := newSrv()
	if err := a.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	n1 := 0
	trajA, _, _ := driveDeterministic(t, a, "s", db, 1<<20, 40, &n1)
	cp, err := a.Checkpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	a.Close()

	b := newSrv()
	defer b.Close()
	if err := b.RestoreSession(cp); err != nil {
		t.Fatal(err)
	}
	n2 := 0
	trajB, gotBest, conv := driveDeterministic(t, b, "s", db, 1<<20, 0, &n2)
	if !conv {
		t.Fatal("restored session did not converge")
	}
	if !gotBest.Equal(refBest) {
		t.Fatalf("restored best %v != uninterrupted best %v", gotBest, refBest)
	}
	// The concatenated trajectory (dedup at the seam) must match the
	// reference exactly: the restart replays at most the in-flight batch and
	// never resets the simplex.
	joined := append([]string(nil), trajA...)
	for _, s := range trajB {
		if len(joined) == 0 || joined[len(joined)-1] != s {
			joined = append(joined, s)
		}
	}
	if len(joined) != len(refTraj) {
		t.Fatalf("trajectory lengths differ: interrupted %d vs reference %d\nA=%v\nB=%v\nref=%v",
			len(joined), len(refTraj), trajA, trajB, refTraj)
	}
	for i := range joined {
		if joined[i] != refTraj[i] {
			t.Fatalf("trajectory diverged at %d: %s vs %s", i, joined[i], refTraj[i])
		}
	}
}

func TestCheckpointErrors(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if _, err := srv.Checkpoint("missing"); err == nil {
		t.Error("checkpoint of unknown session should fail")
	}
	if err := srv.RestoreSession([]byte("{garbage")); err == nil {
		t.Error("restore of bad JSON should fail")
	}
	if err := srv.RestoreSession([]byte(`{"name":""}`)); err == nil {
		t.Error("restore without a name should fail")
	}
	if err := srv.RestoreAll([]byte("nonsense")); err == nil {
		t.Error("restore-all of bad JSON should fail")
	}
}

func TestCheckpointAllRoundTrip(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 9, Coverage: 1})
	est := mustMinOfK(t, 1)
	srv := NewServer(ServerOptions{Estimator: est})
	if err := srv.Register("one", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("two", gs2Params()); err != nil {
		t.Fatal(err)
	}
	// Feed a few measurements so checkpoints capture a live simplex.
	for _, name := range []string{"one", "two"} {
		for i := 0; i < 20; i++ {
			fr := fetchWork(t, srv, name)
			if err := srv.Report(name, fr.Tag, db.Eval(fr.Point)); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := srv.CheckpointAll()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2 := NewServer(ServerOptions{Estimator: est})
	defer srv2.Close()
	if err := srv2.RestoreAll(data); err != nil {
		t.Fatal(err)
	}
	if got := len(srv2.Sessions()); got != 2 {
		t.Fatalf("restored %d sessions, want 2", got)
	}
	// Restoring on top of an existing session fails cleanly.
	if err := srv2.RestoreAll(data); err == nil {
		t.Error("restore over existing sessions should fail")
	}
}

// --- client reconnect with backoff ---

// trackingListener records accepted connections so the test can sever them,
// simulating a server process crash.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) killConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.Close()
	}
	l.conns = nil
}

// TestClientReconnectsToRestartedServer kills the server mid-session
// (listener and live connections), restores a new server from a checkpoint
// on the same address, and checks the same client object finishes tuning —
// reconnect-on-EOF with backoff plus idempotent reports.
func TestClientReconnectsToRestartedServer(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 33, Coverage: 1})
	est := mustMinOfK(t, 1)
	newSrv := func() *Server {
		return NewServer(ServerOptions{Estimator: est})
	}

	srv1 := newSrv()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1 := &trackingListener{Listener: raw}
	serveAsync(l1, srv1)
	addr := raw.Addr().String()

	cl, err := DialWith(addr, DialOptions{Retries: 20, Backoff: 5 * time.Millisecond, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	for reports := 0; reports < 30; {
		fr, err := cl.Fetch("s")
		if err != nil {
			t.Fatal(err)
		}
		if fr.Converged {
			break
		}
		if fr.Tag == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		if err := cl.Report("s", fr.Tag, db.Eval(fr.Point)); err == nil {
			reports++
		}
	}
	cp, err := srv1.Checkpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	// Crash: listener gone, live connections reset, sessions dead.
	_ = raw.Close()
	l1.killConns()
	srv1.Close()

	// Restart on the same address from the checkpoint.
	raw2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw2.Close()
	srv2 := newSrv()
	defer srv2.Close()
	if err := srv2.RestoreSession(cp); err != nil {
		t.Fatal(err)
	}
	serveAsync(raw2, srv2)

	// The same client object must pick the session back up and finish.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		fr, err := cl.Fetch("s")
		if err != nil {
			t.Fatal(err)
		}
		if fr.Converged {
			best, _, _, err := cl.Best("s")
			if err != nil {
				t.Fatal(err)
			}
			if !db.Space().Admissible(best) {
				t.Fatalf("best %v not admissible", best)
			}
			return
		}
		if fr.Tag != 0 {
			//paralint:allow errdiscipline the report may race the server restart; the reconnect loop retries the tag
			_ = cl.Report("s", fr.Tag, db.Eval(fr.Point))
		}
	}
	t.Fatal("session did not converge after server restart")
}

func TestDialWithRetriesExhausted(t *testing.T) {
	start := time.Now()
	_, err := DialWith("127.0.0.1:1", DialOptions{Retries: 3, Backoff: time.Millisecond, Timeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("dial of a closed port should fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("backoff took unreasonably long")
	}
}

// --- the end-to-end fault drill (acceptance criterion) ---

// TestFaultDrill runs 8 simulated clients against an in-process server with
// 2 injected crashes, 10% report drops, and 5% corrupt reports, and checks
// the session still converges on the GS2 surrogate with a converged
// Total_Time within 10% of the fault-free run under the same seed.
func TestFaultDrill(t *testing.T) {
	db := objective.GenerateGS2(objective.GS2Config{Seed: 31, Coverage: 1})

	run := func(in *fault.Injector) space.Point {
		est := mustMinOfK(t, 3)
		srv := NewServer(ServerOptions{
			Estimator:          est,
			MeasurementTimeout: 100 * time.Millisecond,
			MaxReissues:        3,
		})
		defer srv.Close()
		if err := srv.Register("drill", gs2Params()); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var stop atomic.Bool
		model := mustPareto(t, 1.7, 0.1)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := dist.NewRNG(int64(100 + id))
				deadline := time.Now().Add(60 * time.Second)
				for !stop.Load() && time.Now().Before(deadline) {
					fr, err := srv.Fetch("drill")
					if err != nil {
						return
					}
					if fr.Converged {
						stop.Store(true)
						return
					}
					if fr.Tag == 0 {
						time.Sleep(time.Millisecond) // between batches
						continue
					}
					y := model.Perturb(db.Eval(fr.Point), rng)
					out := in.Next(id, fr.Tag)
					switch out.Kind {
					case fault.Crash:
						return // the client process dies
					case fault.Drop:
						continue // measurement done, report lost
					case fault.Corrupt:
						y = out.Value // garbage hits the wire boundary
					}
					//paralint:allow errdiscipline injected faults make reports fail by design; the drill only checks the survivors
					_ = srv.Report("drill", fr.Tag, y)
				}
			}(c)
		}
		wg.Wait()
		best, _, conv, err := srv.Best("drill")
		if err != nil {
			t.Fatal(err)
		}
		if !conv {
			t.Fatal("drill session did not converge")
		}
		if !db.Space().Admissible(best) {
			t.Fatalf("best %v not admissible", best)
		}
		return best
	}

	cleanBest := run(nil)
	inj, err := fault.New(fault.Config{
		Seed:   77,
		PCrash: 0.02, MaxCrashes: 2,
		PDrop:    0.10,
		PCorrupt: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	faultyBest := run(inj)

	if got := inj.Plan().Count(fault.Crash); got != 2 {
		t.Errorf("injected %d crashes, want 2", got)
	}
	if inj.Plan().Count(fault.Drop) == 0 || inj.Plan().Count(fault.Corrupt) == 0 {
		t.Errorf("drill injected too few faults: %d drops, %d corruptions",
			inj.Plan().Count(fault.Drop), inj.Plan().Count(fault.Corrupt))
	}
	clean, faulty := db.Eval(cleanBest), db.Eval(faultyBest)
	if math.Abs(faulty-clean) > 0.10*clean {
		t.Errorf("faulty converged Total_Time %.4f deviates more than 10%% from fault-free %.4f", faulty, clean)
	}
}
