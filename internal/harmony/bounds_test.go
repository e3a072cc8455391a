package harmony

import (
	"net"
	"strconv"
	"testing"
	"time"

	"paratune/internal/alloccheck"
)

// Per-session and per-connection memory that a client controls the size of
// must stay bounded however many reports or distinct ids it sends. These
// tests pin each bound at its site.

// TestSlotMemoryBounded sends one sample slot hundreds of reports through
// the session's report path — resends of its value and surplus new values,
// each beside a tag-0 report — and none of them allocates: the slot buffer
// keeps its K values, and a report leaves no per-report state behind.
func TestSlotMemoryBounded(t *testing.T) {
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	frs, err := srv.FetchN("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := srv.lookup("s")
	items := []ReportItem{{Tag: frs[0].Tag, Value: 1}, {Tag: 0, Value: 1}}
	sent := 0
	send := func(v float64) {
		items[0].Value = v
		sent++
		if _, err := s.report(items); err != nil {
			t.Fatal(err)
		}
	}
	send(1) // fills the slot
	alloccheck.Guard(t, "harmony.session.report/resend", 0, func() { send(1) })
	alloccheck.Guard(t, "harmony.session.report/surplus", 0, func() { send(float64(1 + sent)) })
	s.mu.Lock()
	defer s.mu.Unlock()
	c, j := s.slotLocked(frs[0].Tag)
	if c == nil || len(c.obs) != 3 || cap(c.obs) != 3 || c.filled != 1 || c.obs[j] != 1 {
		t.Errorf("after %d reports for one slot the candidate is %+v, want its 3 slots, only this one filled, with 1", sent, c)
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
			if _, err := rw.conn.Write(rw.frame(&request{Op: opBest, Session: "s", Client: client, Seq: seq})); err != nil {
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
		dup := rw.frame(&request{Op: opBest, Session: "s", Client: "late", Seq: late})
		next := rw.frame(&request{Op: opBest, Session: "s", Client: "late", Seq: late + 1})
		if _, err := rw.conn.Write(append(dup, next...)); err != nil {
			t.Fatal(err)
		}
		if resp, ok := rw.readResp(); !ok || resp.Seq != late+1 {
			t.Fatalf("after the reset: got response seq %d (ok=%v), want %d (duplicate must get no response)", resp.Seq, ok, late+1)
		}
	})
}
