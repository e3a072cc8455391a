package harmony

import (
	"io"
	"net"
	"testing"
	"time"
)

// serveDeadlines runs ServeWith on a loopback listener with read timeout
// readT and returns its address; cleanup closes the listener and joins the
// server, which closes every connection it still holds.
func serveDeadlines(t *testing.T, readT time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	done := make(chan error, 1)
	go func() { done <- ServeWith(l, srv, ConnOptions{ReadTimeout: readT, WriteTimeout: time.Second}) }()
	t.Cleanup(func() {
		_ = l.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
		srv.Close()
	})
	return l.Addr().String()
}

// roundTrip sends one request frame and reads the response frame.
func roundTrip(rw *rawWire) error {
	if _, err := rw.conn.Write(rw.frame(&request{Op: opBest, Session: "none"})); err != nil {
		return err
	}
	if _, ok := rw.readResp(); !ok {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// TestIdleConnectionClosedAfterReadTimeout: re-arming the read deadline
// lazily must still cut a connection that stops sending, between 63T/64 and
// T after its last request.
func TestIdleConnectionClosedAfterReadTimeout(t *testing.T) {
	const readT = 300 * time.Millisecond
	rw := newRawWire(t, serveDeadlines(t, readT))
	if err := roundTrip(rw); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = rw.conn.SetReadDeadline(start.Add(10 * readT))
	if _, err := rw.br.ReadByte(); err == nil {
		t.Fatal("the server sent bytes nobody asked for")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("an idle connection was still open after %v (read timeout %v)", time.Since(start), readT)
	}
	if idle := time.Since(start); idle < readT*63/64-50*time.Millisecond {
		t.Errorf("the server closed an idle connection after %v, before its read timeout %v", idle, readT)
	}
}

// TestConnectionSendingEveryHalfTimeoutStaysOpen: a connection that sends
// every T/2 keeps moving its read deadline, so it outlives several T.
func TestConnectionSendingEveryHalfTimeoutStaysOpen(t *testing.T) {
	const readT = 300 * time.Millisecond
	rw := newRawWire(t, serveDeadlines(t, readT))
	start := time.Now()
	for i := 0; i < 8; i++ {
		if i > 0 {
			time.Sleep(readT / 2)
		}
		if err := roundTrip(rw); err != nil {
			t.Fatalf("request %d, %v after the first: %v", i, time.Since(start), err)
		}
	}
}
