package harmony

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"paratune/internal/alloccheck"
	"paratune/internal/frame"
)

// wireCases enumerates the two wire protocols; the resume/dup-suppression
// contract must hold identically under both.
var wireCases = []Wire{WireJSON, WireBinary}

// dialTest connects a JSON Client to a served Server with fast,
// deterministic retry options and returns both plus the listener address.
func dialTest(t *testing.T, srv *Server) (*Client, string) {
	t.Helper()
	return dialTestWire(t, srv, WireJSON)
}

// dialTestWire is dialTest with an explicit wire protocol.
func dialTestWire(t *testing.T, srv *Server, wire Wire) (*Client, string) {
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
		Wire:    wire,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, l.Addr().String()
}

// rawWire drives a served connection with hand-built frames in either codec,
// for tests that need wire-level control (duplicated frames, raw sequences).
type rawWire struct {
	t    *testing.T
	conn net.Conn
	wire Wire
	sc   *bufio.Scanner
	br   *bufio.Reader
	rbuf []byte
}

func newRawWire(t *testing.T, addr string, wire Wire) *rawWire {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	rw := &rawWire{t: t, conn: conn, wire: wire}
	if wire == WireBinary {
		if _, err := io.WriteString(conn, WireMagic); err != nil {
			t.Fatal(err)
		}
		rw.br = bufio.NewReader(conn)
	} else {
		rw.sc = bufio.NewScanner(conn)
	}
	return rw
}

// frame encodes one request in the connection's codec.
func (rw *rawWire) frame(req *request) []byte {
	rw.t.Helper()
	if rw.wire == WireBinary {
		payload, err := appendRequest(nil, req)
		if err != nil {
			rw.t.Fatal(err)
		}
		return frame.Append(nil, payload)
	}
	b, err := json.Marshal(req)
	if err != nil {
		rw.t.Fatal(err)
	}
	return append(b, '\n')
}

// readResp reads one response frame; false on connection end.
func (rw *rawWire) readResp() (response, bool) {
	rw.t.Helper()
	var resp response
	if rw.wire == WireBinary {
		payload, err := frame.Read(rw.br, frame.MaxPayload, &rw.rbuf)
		if err != nil {
			return resp, false
		}
		if err := decodeResponse(payload, &resp); err != nil {
			rw.t.Fatal(err)
		}
		return resp, true
	}
	if !rw.sc.Scan() {
		return resp, false
	}
	if err := json.Unmarshal(rw.sc.Bytes(), &resp); err != nil {
		rw.t.Fatal(err)
	}
	return resp, true
}

func TestResumeHandshake(t *testing.T) {
	for _, wire := range wireCases {
		t.Run(string(wire), func(t *testing.T) {
			srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 1)})
			defer srv.Close()
			c, _ := dialTestWire(t, srv, wire)
			if err := c.Register("s", gs2Params()); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Fetch("s"); err != nil {
				t.Fatal(err)
			}

			// Sever the connection behind the client's back; the next call must
			// transparently reconnect, resume the session, and succeed.
			c.mu.Lock()
			_ = c.conn.Close()
			c.mu.Unlock()
			if _, err := c.Fetch("s"); err != nil {
				t.Fatalf("fetch after severed connection: %v", err)
			}
			n, info := c.Resumes()
			if n != 1 {
				t.Fatalf("resumes = %d, want 1", n)
			}
			if info.Resumes != 1 {
				t.Errorf("server-side resume count = %d, want 1", info.Resumes)
			}
			// Exactly one frame died with the connection: the retried fetch's
			// first send attempt, which consumed a sequence number on the dead
			// socket. The resume frame itself and every pre-cut frame must not
			// be counted.
			if info.Dropped != 1 {
				t.Errorf("reconnect reported %d dropped frames, want exactly 1 (the send attempt that died with the socket)", info.Dropped)
			}
		})
	}
}

func TestResumeUnknownSession(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if _, err := srv.Resume("ghost", "c1", 7); err == nil {
		t.Fatal("resume of unknown session should fail")
	} else if !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := srv.Resume("ghost", "", 7); err == nil {
		t.Fatal("resume without a client id should fail")
	}
}

func TestResumeCountsDroppedFrames(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	srv.trackFrame("s", "c1", 1)
	srv.trackFrame("s", "c1", 2)
	// Frames 3..5 vanish in transit; the client resumes with its next frame
	// sequence, 6. The gap is exactly frames 3, 4, 5.
	info, err := srv.Resume("s", "c1", 6)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", info.Dropped)
	}
	if info.LastSeq != 6 {
		t.Errorf("lastSeq = %d, want 6", info.LastSeq)
	}
	// An unknown client (server restarted, tracking lost) must not invent
	// loss from its baseline.
	info, err = srv.Resume("s", "c2", 40)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dropped != 0 {
		t.Errorf("unknown-client resume invented %d dropped frames", info.Dropped)
	}
}

// TestTrackFrameUnknownSessionAllocFree guards the frame bookkeeping that
// runs before every dispatched frame, a register's included: while the
// session does not exist yet, the miss must not build an error.
func TestTrackFrameUnknownSessionAllocFree(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	alloccheck.Guard(t, "Server.trackFrame unknown session", 0, func() {
		srv.trackFrame("not-yet-registered", "c1", 1)
		srv.noteDuplicateFrame("not-yet-registered", "c1")
	})
}

// TestDuplicateFrameSuppressed replays one frame twice on a raw connection
// and asserts exactly one response comes back: the duplicate must be
// discarded silently, or every later round trip on the connection would read
// the wrong response.
func TestDuplicateFrameSuppressed(t *testing.T) {
	for _, wire := range wireCases {
		t.Run(string(wire), func(t *testing.T) {
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

			rw := newRawWire(t, l.Addr().String(), wire)
			dup := rw.frame(&request{Op: "best", Session: "s", Client: "dup-test", Seq: 1})
			// The duplicated frame, then a fresh one so the reader can prove
			// exactly one response was sent for the pair of duplicates.
			if _, err := rw.conn.Write(append(append([]byte{}, dup...), dup...)); err != nil {
				t.Fatal(err)
			}
			next := rw.frame(&request{Op: "best", Session: "s", Client: "dup-test", Seq: 2})
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
				seqs = append(seqs, resp.Seq)
			}
			if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
				t.Fatalf("response seqs = %v, want [1 2] (duplicate must get no response)", seqs)
			}

			info, err := srv.Resume("s", "dup-test", 3)
			if err != nil {
				t.Fatal(err)
			}
			if info.Duplicates != 1 {
				t.Errorf("duplicates = %d, want 1", info.Duplicates)
			}
		})
	}
}

// TestPermanentErrorNoRetry reports an invalid value and asserts the client
// fails fast on the very first connection — no redial loop — with an error
// the classifier helpers recognise.
func TestPermanentErrorNoRetry(t *testing.T) {
	for _, wire := range wireCases {
		t.Run(string(wire), func(t *testing.T) {
			srv := NewServer(ServerOptions{})
			defer srv.Close()
			c, _ := dialTestWire(t, srv, wire)
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
			if !IsInvalidValue(err) || !IsPermanent(err) {
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
			if !IsUnknownSession(err) {
				t.Fatalf("unknown session not classified: %v", err)
			}
		})
	}
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
