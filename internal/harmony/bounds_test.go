package harmony

import (
	"net"
	"strconv"
	"testing"
	"time"
)

// Per-session and per-connection memory that a client controls the size of
// must stay bounded however many distinct ids it sends. These tests pin each
// bound at its site.

// registeredSession registers a GS2 session on a fresh server and returns it.
func registeredSession(t *testing.T) *session {
	t.Helper()
	srv := NewServer(ServerOptions{})
	t.Cleanup(srv.Close)
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	return srv.lookup("s")
}

// TestRememberedRIDsBounded drives three generations of distinct report ids
// through the idempotency memory: the two generations together never hold
// more than 2×maxRememberedReports, and a recent id is still deduplicated.
func TestRememberedRIDsBounded(t *testing.T) {
	s := registeredSession(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 3 * maxRememberedReports
	for i := 0; i < n; i++ {
		s.rememberRIDLocked("rid-" + strconv.Itoa(i))
	}
	if got := len(s.ridCur) + len(s.ridOld); got > 2*maxRememberedReports {
		t.Errorf("remembered %d report ids after %d distinct ones, bound %d", got, n, 2*maxRememberedReports)
	}
	if recent := "rid-" + strconv.Itoa(n-1); !s.seenRIDLocked(recent) {
		t.Errorf("most recent report id %q is no longer deduplicated", recent)
	}
}

// TestConnDedupSurvivesClientChurn sends frames from more distinct client
// ids than a connection's sequence map holds, which resets the map, and then
// checks that a duplicated frame is still discarded. The map is local to the
// connection loop, so this test sees the behaviour, not the map's size.
func TestConnDedupSurvivesClientChurn(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv := NewServer(ServerOptions{})
		defer srv.Close()
		if err := srv.Register("s", gs2Params()); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		serveAsync(l, srv)

		rw := newRawWire(t, l.Addr().String())
		_ = rw.conn.SetDeadline(time.Now().Add(10 * time.Second))
		roundTrip := func(client string, seq uint64) {
			t.Helper()
			if _, err := rw.conn.Write(rw.frame(&request{Op: "best", Session: "s", Client: client, Seq: seq})); err != nil {
				t.Fatal(err)
			}
			if resp, ok := rw.readResp(); !ok || resp.Seq != seq {
				t.Fatalf("client %s seq %d: got response seq %d (ok=%v)", client, seq, resp.Seq, ok)
			}
		}
		// One frame per client id, a distinct sequence each, fills the
		// map to its cap; the next new id resets it.
		for i := 0; i < maxTrackedClients; i++ {
			roundTrip("churn-"+strconv.Itoa(i), uint64(i+1))
		}
		const late = 1 << 20
		roundTrip("late", late)

		// The duplicate, then a fresh frame: exactly one response, for
		// the fresh frame, proves the duplicate was discarded.
		dup := rw.frame(&request{Op: "best", Session: "s", Client: "late", Seq: late})
		next := rw.frame(&request{Op: "best", Session: "s", Client: "late", Seq: late + 1})
		if _, err := rw.conn.Write(append(dup, next...)); err != nil {
			t.Fatal(err)
		}
		if resp, ok := rw.readResp(); !ok || resp.Seq != late+1 {
			t.Fatalf("after the reset: got response seq %d (ok=%v), want %d (duplicate must get no response)", resp.Seq, ok, late+1)
		}
	})
}
