package harmony

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"paratune/internal/frame"
)

// dialTest connects a Client to a served Server with fast, deterministic
// retry options and returns both plus the listener address.
func dialTest(t *testing.T, srv *Server) (*Client, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	serveAsync(l, srv)
	c, err := DialWith(l.Addr().String(), DialOptions{
		Retries: 8,
		Backoff: 5 * time.Millisecond,
		Timeout: 5 * time.Second,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, l.Addr().String()
}

// rawWire drives a served connection with hand-built PHWIRE1 frames, for
// tests that need wire-level control (duplicated frames, raw sequences).
type rawWire struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	rbuf []byte
}

// newRawWire dials addr and sends the PHWIRE1 preamble.
func newRawWire(t *testing.T, addr string) *rawWire {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := io.WriteString(conn, WireMagic); err != nil {
		t.Fatal(err)
	}
	return &rawWire{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// frame encodes one request as a PHWIRE1 frame.
func (rw *rawWire) frame(req *request) []byte {
	rw.t.Helper()
	payload, err := appendRequest(nil, req)
	if err != nil {
		rw.t.Fatal(err)
	}
	return frame.Append(nil, payload)
}

// readResp reads one response frame; false on connection end.
func (rw *rawWire) readResp() (response, bool) {
	rw.t.Helper()
	var resp response
	payload, err := frame.Read(rw.br, frame.MaxPayload, &rw.rbuf)
	if err != nil {
		return resp, false
	}
	if err := decodeResponse(payload, &resp); err != nil {
		rw.t.Fatal(err)
	}
	return resp, true
}

// TestResumeHandshake severs a client's connection behind its back: the
// next call must transparently reconnect and succeed on the live session.
func TestResumeHandshake(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 1)})
		defer srv.Close()
		c, _ := dialTest(t, srv)
		if err := c.Register("s", gs2Params()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Fetch("s"); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		_ = c.conn.Close()
		c.mu.Unlock()
		if _, err := c.Fetch("s"); err != nil {
			t.Fatalf("fetch after severed connection: %v", err)
		}
		if n := c.Reconnects(); n != 1 {
			t.Fatalf("reconnects = %d, want 1", n)
		}
	})
}

// inboundListener records, per accepted connection, every byte the server
// reads from it.
type inboundListener struct {
	net.Listener
	mu    sync.Mutex
	conns [][]byte
}

func (l *inboundListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conns = append(l.conns, nil)
	return &inboundConn{Conn: c, l: l, i: len(l.conns) - 1}, nil
}

// inbound returns a copy of what connection i has carried so far; nil when
// fewer connections were accepted.
func (l *inboundListener) inbound(i int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.conns) {
		return nil
	}
	return append([]byte(nil), l.conns[i]...)
}

type inboundConn struct {
	net.Conn
	l *inboundListener
	i int
}

func (c *inboundConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.mu.Lock()
	c.l.conns[c.i] = append(c.l.conns[c.i], b[:n]...)
	c.l.mu.Unlock()
	return n, err
}

// requestFrames counts the PHWIRE1 request frames after the preamble in a
// connection's inbound bytes.
func requestFrames(t *testing.T, in []byte) int {
	t.Helper()
	in = bytes.TrimPrefix(in, []byte(WireMagic))
	n := 0
	for len(in) > 0 {
		_, used, err := frame.Split(in, frame.MaxPayload)
		if err != nil {
			t.Fatalf("inbound frame %d: %v", n, err)
		}
		in = in[used:]
		n++
	}
	return n
}

// TestReconnectSendsOnlyTheRetry cuts a client's connection between two
// FetchN calls: the fresh connection carries exactly one request frame, the
// retried fetchn, and no handshake before it.
func TestReconnectSendsOnlyTheRetry(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
		defer srv.Close()
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		l := &inboundListener{Listener: raw}
		serveAsync(l, srv)
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
		if _, err := c.FetchN("s", 4); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		_ = c.conn.Close()
		c.mu.Unlock()
		if _, err := c.FetchN("s", 4); err != nil {
			t.Fatalf("fetchn after severed connection: %v", err)
		}
		if got := requestFrames(t, l.inbound(0)); got != 2 {
			t.Fatalf("first connection carried %d request frames, want 2 (register, fetchn)", got)
		}
		if got := requestFrames(t, l.inbound(1)); got != 1 {
			t.Errorf("second connection carried %d request frames, want 1 (the retried fetchn)", got)
		}
	})
}

// TestDuplicateFrameSuppressed replays one report frame twice on a raw
// connection: exactly one response comes back, or every later round trip on
// the connection would read the wrong response, and the sample slot the
// report names holds its one value.
func TestDuplicateFrameSuppressed(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv := NewServer(ServerOptions{})
		defer srv.Close()
		if err := srv.Register("s", gs2Params()); err != nil {
			t.Fatal(err)
		}
		fr, err := srv.Fetch("s")
		if err != nil {
			t.Fatal(err)
		}
		if fr.Tag == 0 {
			t.Fatal("no candidate outstanding after Register")
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		serveAsync(l, srv)

		rw := newRawWire(t, l.Addr().String())
		dup := rw.frame(&request{Op: opReportN, Session: "s", Seq: 1, Reports: []ReportItem{{Tag: fr.Tag, Value: 2}}})
		// The duplicated frame, then a fresh one so the reader can prove
		// exactly one response was sent for the pair of duplicates.
		if _, err := rw.conn.Write(append(append([]byte{}, dup...), dup...)); err != nil {
			t.Fatal(err)
		}
		next := rw.frame(&request{Op: opBest, Session: "s", Seq: 2})
		if _, err := rw.conn.Write(next); err != nil {
			t.Fatal(err)
		}

		_ = rw.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var seqs []uint64
		for len(seqs) < 2 {
			resp, ok := rw.readResp()
			if !ok {
				break
			}
			if resp.Seq == 1 && (!resp.OK || resp.Rejected != 0) {
				t.Fatalf("report rejected: %s", resp.Error)
			}
			seqs = append(seqs, resp.Seq)
		}
		if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
			t.Fatalf("response seqs = %v, want [1 2] (duplicate must get no response)", seqs)
		}

		s := srv.lookup("s")
		s.mu.Lock()
		filled, recorded := -1, s.batchObs // -1: the candidate is gone
		if c, j := s.slotLocked(fr.Tag); c != nil && c.obs[j] == 2 {
			filled = c.filled
		}
		s.mu.Unlock()
		if filled != 1 || recorded != 1 {
			t.Errorf("after a duplicated report: %d slots filled and %d measurements recorded, want the one slot and 1", filled, recorded)
		}
	})
}

// TestRegisterAfterCloseDropsConnection sends a Register to a server whose
// Close has begun while its listener still serves: the connection drops, so
// a client reconnects and resends, instead of reading "server closed" as an
// ordinary error reply it does not retry.
func TestRegisterAfterCloseDropsConnection(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv := NewServer(ServerOptions{})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		serveAsync(l, srv)
		rw := newRawWire(t, l.Addr().String())
		srv.Close()
		if _, err := rw.conn.Write(rw.frame(&request{Op: opRegister, Session: "s", Params: gs2Params(), Seq: 1})); err != nil {
			t.Fatal(err)
		}
		_ = rw.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if resp, ok := rw.readResp(); ok {
			t.Fatalf("closing server answered a register (ok=%v, error %q); want the connection dropped", resp.OK, resp.Error)
		}
	})
}

// TestPermanentErrorNoRetry reports an invalid value and asserts the client
// fails fast on the very first connection — no redial loop — with an error
// the classifier helpers recognise.
func TestPermanentErrorNoRetry(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv := NewServer(ServerOptions{})
		defer srv.Close()
		c, _ := dialTest(t, srv)
		if err := c.Register("s", gs2Params()); err != nil {
			t.Fatal(err)
		}
		fr, err := c.Fetch("s")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err = c.Report("s", fr.Tag, -1)
		if err == nil {
			t.Fatal("negative report should fail")
		}
		if !errors.Is(err, ErrInvalidValue) || !IsPermanent(err) {
			t.Fatalf("error not classified permanent/invalid_value: %v", err)
		}
		// A retried permanent error would cost at least one backoff sleep;
		// fast failure stays well under the first delay's floor.
		if d := time.Since(start); d > 3*time.Second {
			t.Errorf("permanent error took %v; looks like it was retried", d)
		}
		if err := c.Register("other", gs2Params()); err != nil {
			t.Fatalf("client unusable after permanent error: %v", err)
		}
		_, err = c.Fetch("nope")
		if !errors.Is(err, ErrUnknownSession) {
			t.Fatalf("unknown session not classified: %v", err)
		}
	})
}

// TestBackoffCap drives the redial loop against a dead address and asserts
// the total wait matches capped growth, not unbounded doubling.
func TestBackoffCap(t *testing.T) {
	// Exercise the doubling-with-cap logic directly: wall-clock asserting a
	// full dial loop is hopelessly flaky under race instrumentation, and the
	// contract lives entirely in backoffLocked's delay sequence.
	opts := DialOptions{
		Retries:    6,
		Backoff:    time.Microsecond,
		MaxBackoff: 4 * time.Microsecond,
		Timeout:    time.Second,
		Seed:       7,
	}
	opts.normalise()
	c := &Client{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
	d := opts.Backoff
	var got []time.Duration
	for i := 0; i < 6; i++ {
		got = append(got, d)
		c.backoffLocked(&d)
	}
	want := []time.Duration{1 * time.Microsecond, 2 * time.Microsecond,
		4 * time.Microsecond, 4 * time.Microsecond, 4 * time.Microsecond, 4 * time.Microsecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delay sequence %v, want doubling capped at MaxBackoff %v", got, want)
		}
	}

	// And the normalisation defaults: an unset cap is 30x the base delay,
	// and a cap below the base delay is raised to it.
	def := DialOptions{Backoff: 10 * time.Millisecond}
	def.normalise()
	if def.MaxBackoff != 300*time.Millisecond {
		t.Errorf("default MaxBackoff = %v, want 30x Backoff", def.MaxBackoff)
	}
	low := DialOptions{Backoff: 10 * time.Millisecond, MaxBackoff: time.Millisecond}
	low.normalise()
	if low.MaxBackoff != 10*time.Millisecond {
		t.Errorf("sub-Backoff cap = %v, want raised to Backoff", low.MaxBackoff)
	}
}
